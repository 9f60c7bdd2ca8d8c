"""qumem: photonic quantum memristor simulator.

Device equations and output states, closed-loop hysteresis dynamics,
a memristor-based quantum reservoir computer with a trainable linear
readout, and maximum-likelihood tomography of the device output.
Import each name from its module, e.g. ``from qumem.reservoir import
Reservoir``.
"""

__version__ = "0.1.0"
