"""One homlab run in a fresh process, on the path the ``homlab`` CLI takes.

    python3 child.py CONFIG SEED WORKERS OUT_DIR TRACE

Times the set-up (importing homlab with numpy and scipy, parsing the
config) and ``homlab.runner.run``, and prints one JSON line.  With
TRACE=1 the layer hooks of ``layertrace.py`` are installed between the two,
so set-up is never traced.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    config, seed, workers, out_dir, trace = argv[0], int(argv[1]), int(argv[2]), argv[3], argv[4]
    from homlab import cli  # the CLI's imports: homlab, config, runner

    cfg = cli.parse_config(config)
    cfg.seed = seed  # as ``homlab <command> --seed`` does
    cfg.canonical["seed"] = seed
    setup_s = time.perf_counter() - _T0

    import numpy
    import scipy
    from homlab import records, runner

    tracer = None
    if trace == "1":
        from layertrace import Tracer  # this file's directory is sys.path[0]

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        code, csv_path, _ = runner.run(cfg, workers=workers, out_dir=out_dir)
    else:
        code, csv_path, _ = tracer.run(runner.run, cfg, workers=workers, out_dir=out_dir)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
        "csv": csv_path,
        "canonical_sha256": hashlib.sha256(records.canonical_csv_bytes(csv_path)).hexdigest(),
        "homlab_file": cli.__file__,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall_s, cpu_s, os.path.getsize(csv_path))
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
