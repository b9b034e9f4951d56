"""Test-time prompt optimization for LLM time-series forecasting.

The pipeline retrieves historical analog windows by Pearson correlation,
renders them into a forecaster prompt, and iteratively refines the prompt's
instruction block against recent ground truth, keeping the best-scoring
prompt unless the refiner declares the session done. A benchmark harness
runs method grids and the four-condition ablation with median-of-runs
aggregation.

Import names from their modules, each of which lists its API in
``__all__``: ``series``, ``retrieval``, ``prompts``, ``backends``,
``session``, ``bench``, ``testing``, ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
