"""``python -m qnsem``: the same command line as the ``qnsem`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
