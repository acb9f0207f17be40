"""Virtual beam-plate MEMS fatigue rig.

Lumped electrostatic pull-in physics, pull-in-monitored fatigue test
drivers, stair-case fatigue-limit estimation (Dixon-Mood) and Basquin
S-N fitting, behind a deterministic config/CSV/JSON command line. The
modules are the API (``from microfatigue.device import Device``); the
package loads none of them. Only ``protocols`` and ``stats`` use numpy, and
they import it inside the functions that make arrays (the population draw
and the recovery trial), so a command that makes no array starts without
it. Nothing imports ``logging``: what a campaign reports beside its
artifacts is returned data (``protocols.campaign_notes``), which the command
line prints on stderr. The value types are ``NamedTuple``s, cheaper to
create at import than frozen dataclasses; ``_replace`` makes a modified copy.
"""

__version__ = "0.1.0"
