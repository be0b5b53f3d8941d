"""Set-up cost in a fresh interpreter: ``import gradiform.cli``, then
``load_config`` and ``build_system`` for every system a workload uses.

Usage: ``python3 bench/setup_probe.py '<JSON list of --set lists>'`` with
``src`` on ``PYTHONPATH``.  Prints the set-up's wall and CPU time as
``{"setup_s": ..., "setup_cpu_s": ...}``.
"""
import json
import sys
import time

t0, c0 = time.perf_counter(), time.process_time()
import gradiform.cli as cli  # noqa: E402

for sets in json.loads(sys.argv[1]):
    cfg = cli.load_config(None, sets)
    cli.build_system(cli.SystemSpec(name=cfg["system"]["name"],
                                    params=dict(cfg["system"]["params"]),
                                    dim=0))
print(json.dumps({"setup_s": time.perf_counter() - t0,
                  "setup_cpu_s": time.process_time() - c0}))
