"""One set-up sample: a fresh interpreter imports the package and builds a
workload's validated scenario.

    python3 perfbench/setup_probe.py fig5 0

``run.py`` times this process from outside, from its start to the line it
prints: ``ready``, the seconds spent in host-speed probes and their mean
time.  The probe starts before the package is imported, so it samples the
host while the import and ``load_scenario`` (or ``generate_scenario``) run.
"""

import sys

import hostspeed

probe = hostspeed.Probe()
probe.start()

import workloads  # noqa: E402

workloads.build_config(sys.argv[1], int(sys.argv[2]))
spent, mean = probe.stop()
print("ready", spent, mean, flush=True)
