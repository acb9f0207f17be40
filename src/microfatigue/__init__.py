"""Virtual beam-plate MEMS fatigue rig.

Lumped electrostatic pull-in physics, pull-in-monitored fatigue test
drivers, stair-case fatigue-limit estimation (Dixon-Mood) and Basquin
S-N fitting, behind a deterministic config/CSV/JSON command line. The
modules are the API (``from microfatigue.device import Device``); the
package loads none of them, and only ``protocols`` and ``stats`` use numpy.
"""

__version__ = "0.1.0"
