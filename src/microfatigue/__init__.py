"""Virtual beam-plate MEMS fatigue rig.

Lumped electrostatic pull-in physics, pull-in-monitored fatigue test
drivers, stair-case fatigue-limit estimation (Dixon-Mood) and Basquin
S-N fitting, behind a deterministic config/CSV/JSON command line. The
modules are the API (``from microfatigue.device import Device``); the
package loads none of them. Only ``stats`` uses numpy, and it imports it
inside the functions that make arrays (the recovery trial), so a command
that makes no array starts without it. The population draw reproduces
numpy's normal variates in pure Python (``_normal``). Nothing imports ``logging``: what a campaign reports beside its
artifacts is returned data (``protocols.campaign_notes``), which the command
line prints on stderr. The value types are ``NamedTuple``s, cheaper to
create at import than frozen dataclasses; ``_replace`` makes a modified copy.
"""

__version__ = "0.1.0"
