"""How much slower than its quiet self this host is running right now.

The benchmark box is a shared 2-core VM whose speed moves in steps that
last from seconds to minutes: the same single-threaded work was
measured taking 1.0x, 1.3x, 1.7x and, briefly, 4x its best time within
one minute.  CPU time tracks wall time through the steps, so it is not
this guest's scheduler and ``host_contention`` cannot see it.  A median
over the segments of one run does not remove a step that outlasts the
run: ten raw runs of one workload spread (quartile distance over
median) by 15 to 30 %.

So every host time the benchmark reports is divided by a factor taken
*at the same moment* from a calibration spin: a millisecond of
pure-Python integer and dict work, timed between the segments of a run.
The result is host time at the reference box's quiet speed.  The spin
is part of the benchmark, not of the program, so no change under
``src/`` can move it; a change that makes the program faster moves the
program's time and not the spin's.

How closely the program's time follows the spin's depends on what slows
the host.  Up to a spin slowdown of about 1.5 it follows one to one
(56 runs of three workloads: residuals within 5 %, 10 % on the
memory-heavy ``observed_get``); in the heavier steps the spin, a tight
loop, loses more than the program does and full division over-corrects
by 10 to 25 %.  :data:`SPIN_EXPONENT` = 0.8 is the compromise: over
those runs it left a spread (quartile distance over median) of 7 to 8 %
on ``passthrough_get`` and ``observed_get`` and under 2 % on
``micro_get``, where raw times spread by 15 to 23 % and by 2 %.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["host_factor", "REFERENCE_SPIN_SECONDS", "SPIN_EXPONENT"]

#: One spin on the reference box while it is quiet.
REFERENCE_SPIN_SECONDS = 0.001075
SPIN_EXPONENT = 0.8


def _spin() -> float:
    started = perf_counter()
    total = 0
    table = {}
    for index in range(20_000):
        total += index * index
        table[index & 255] = total
    return perf_counter() - started


def host_factor() -> float:
    """What to divide a host time measured around now by; 1.0 on the
    quiet reference box.

    The fastest of three spins: a spin that was preempted is noise, but
    a speed step slows all three.
    """
    return (min(_spin(), _spin(), _spin()) / REFERENCE_SPIN_SECONDS) ** SPIN_EXPONENT
