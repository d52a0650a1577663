"""Fresh-interpreter set-up: import the CLI, load the default lexicon and vocabulary.

    python3 perfbench/setup_probe.py

Prints the two phases' times in ms as one JSON object; ``run.py`` also times
the whole process from outside, which is what every CLI invocation pays.
The probe moves round its CPUs as the worker does (``cpus.rotate``).
"""

import json
import time

import cpus

with cpus.rotate():
    t0 = time.perf_counter()
    import aspectcast.cli  # noqa: F401
    from aspectcast.aspects import default_vocabulary
    from aspectcast.sentiment import default_lexicon

    t1 = time.perf_counter()
    default_lexicon()
    default_vocabulary()
    t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "resources_ms": (t2 - t1) * 1e3}))
