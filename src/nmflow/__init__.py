"""Open-system dynamics under time-local generators and the trace-distance
measure of non-Markovianity."""

__version__ = "0.1.0"
