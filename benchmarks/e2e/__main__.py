"""``python -m benchmarks.e2e run|compare|pin`` — see ``README.md``."""

from benchmarks.e2e.cli import main

__all__: list = []

if __name__ == "__main__":
    raise SystemExit(main())
