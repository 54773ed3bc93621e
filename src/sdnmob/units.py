"""Simulation time base.

All timestamps and durations inside the simulator are integer microseconds.
Configuration files speak seconds; conversion happens once at load time, so
event scheduling is exact and runs are reproducible bit for bit.
"""

US_PER_S = 1_000_000
US_PER_MS = 1_000


def usec(seconds: float) -> int:
    """Convert seconds to integer microseconds (round half to even)."""
    return round(seconds * US_PER_S)
