"""voltfi: fault injection for undervolted SRAM caches.

Compares uniform-random fault injection against hardware-guided injection
(spatially clustered, voltage-monotone fault maps) by running benchmark
kernels through a bit-accurate faulty cache model and classifying the
outcomes. Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
