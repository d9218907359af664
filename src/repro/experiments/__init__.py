"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.experiments.config` — experiment parameters (Table 4 defaults,
  scaled to laptop-size synthetic streams) and sweep definitions.
* :mod:`repro.experiments.runner` — dataset/processor caching, stream
  replay, and the efficiency / effectiveness runners shared by all
  experiments.
* :mod:`repro.experiments.tables` — Table 3 (dataset statistics), Table 5
  (simulated user study) and Table 6 (quantitative coverage / influence).
* :mod:`repro.experiments.figures` — Figures 7–14 (efficiency and
  scalability sweeps).
* :mod:`repro.experiments.ablations` — the ranked-list and MTTD
  candidate-buffer ablations.
* :mod:`repro.experiments.reporting` — plain-text rendering of tables and
  figure series, printing the same rows the paper reports.
* :mod:`repro.experiments.paper` — the table of all thirteen artefacts
  (name → description, run, shape check, tier parameters) behind
  ``repro-ksir bench``, and the runner that writes their reports.
"""
