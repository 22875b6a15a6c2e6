"""The two-clock benchmark: see ``perf/README.md``.

Everything here measures the program in ``src/repro`` from outside, by
timing calls into its public functions; no program file is edited.
"""
