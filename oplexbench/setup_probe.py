"""Time the set-up a user pays in a fresh process, and print it in seconds.

    python3 setup_probe.py SRC config CONFIG_JSON   # import + parse_config, build_layers, resolve_x0
    python3 setup_probe.py SRC verify               # import oplex and oplex.verify

SRC is the directory that holds the `oplex` package. The clock starts before
`import oplex`, so numpy and networkx imports are included.
"""

import json
import sys
import time


def main(argv: list[str]) -> None:
    src, kind = argv[0], argv[1]
    raw = json.loads(open(argv[2]).read()) if kind == "config" else None
    sys.path.insert(0, src)
    start = time.perf_counter()
    import oplex  # noqa: F401

    if kind == "config":
        from oplex.harness import build_layers, parse_config, resolve_x0

        config = parse_config(raw)
        layers = build_layers(config)
        resolve_x0(config, layers[0].n)
    else:
        import oplex.verify  # noqa: F401
    elapsed = time.perf_counter() - start
    if not oplex.__file__.startswith(src):
        sys.exit(f"imported oplex from {oplex.__file__}, not from {src}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
