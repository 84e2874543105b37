"""Set-up time of a fresh interpreter, printed in seconds.

Usage: python3 setup_probe.py SRC_DIR

Times the import of ``persian_norm`` and the first ``normalize_speech`` and
``split_sentences`` calls, which load the tables and compile the patterns:
what a command-line user pays on every call.
"""

import sys
import time

SAMPLE = (
    "ساعت 8:00 تاریخ 1397/7/9 قیمت 25$ تماس 09397796915 عدد 3.14 "
    "سایت www.example.com ر.ک Ph.D ½ و 20% است. تمام شد."
)


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import persian_norm

    persian_norm.normalize_speech(SAMPLE)
    persian_norm.split_sentences(SAMPLE)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
