"""``python -m repro.analysis [N ...] [flags]``: an alias of
``python -m repro tables``, or of ``python -m repro report`` when the
first argument is ``report``.  The parser lives in :mod:`repro.__main__`.
"""

from __future__ import annotations

import sys

from ..__main__ import main as repro_main


def main(argv: list[str]) -> int:
    if argv and argv[0] == "report":
        return repro_main(argv)
    return repro_main(["tables", *argv])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
