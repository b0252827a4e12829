"""Experiment harness: one module per paper table or figure.

``cli.EXPERIMENTS`` maps each ``jxta-repro`` name to its module, and
DESIGN.md §4 indexes the modules against the paper's artefacts.

Each module declares its sizes once, ``SIZES = {"ci": {...}, "full":
{...}}`` (keyword arguments of its ``run(...)``, which returns
structured results), and a ``main(full, seed)`` that runs one size and
prints the paper-style series.  The CLI front-end is
``python -m repro.experiments.cli`` (installed as ``jxta-repro``); the
campaign builders and the claim table (``repro.analysis.claims``) read
the same ``SIZES``.
"""
