"""Experiment harness: one module per paper table or figure.

``cli.EXPERIMENTS`` maps each ``jxta-repro`` name to its module, and
DESIGN.md §4 indexes the modules against the paper's artefacts.

Each module declares its sizes once, ``SIZES = {"ci": {...}, "full":
{...}}`` (keyword arguments of its ``run``), and a ``run(**SIZES[size],
seed)`` that prints its progress lines and paper-style table and
returns structured results.  One function runs them all:
``cli.run_experiment(name, size, seed, checkpoint_store)``, behind
``jxta-repro <name>``, ``jxta-repro trace``, the ``experiment``
campaign task (``sweep``, ``--seeds N``) and the claim table
(``repro.analysis.claims``); it hands the checkpoint store to the
modules with a ``bootstrap_spec``.
"""
