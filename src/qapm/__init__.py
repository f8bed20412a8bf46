"""Control/scheduling co-simulator for QoC-aware power management.

Simulates periodic control tasks on a single voltage-scalable processor
under preemptive EDF, with a power manager that adapts sampling periods to
runtime control quality, quantizes the CPU speed onto the available level
set, and reclaims the quantization slack by shrinking periods.
"""
