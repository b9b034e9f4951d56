"""A full refinement session, offline.

The deterministic oracle backend plays all three agents: its forecaster
extrapolates the history it reads out of the prompt (plus seeded noise),
its refiner starts recommending a noise-damping protocol from the second
iteration, and its synthesis step turns those learnings into instruction
bullets. Because the oracle halves its noise whenever the instructions
carry the marker, refinement has a real effect to find — and the selected
prompt should beat the plain one on held-out windows.

Run: python3 demos/04_refinement_session.py
"""

import numpy as np

from flairr.retrieval import build_hist_db
from flairr.series import mae, window_at
from flairr.session import SessionConfig, forecast_reply_for, forecast_with, run_session
from flairr.testing import SyntheticOracleBackend, seasonal_series


def main() -> None:
    values = seasonal_series(1200, period=24, trend=0.005, amplitude=0.1, noise=0.02, seed=42)
    train = values[:840]
    backend = SyntheticOracleBackend(seed=42)

    cfg = SessionConfig(context_length=96, horizon=24, sample_size=3, max_iterations=5, seed=42)
    result = run_session(cfg, train, backend)

    print("iteration | batch MAE | instructions")
    for k, record in enumerate(result.history, start=1):
        label = record.instructions.flattened() if record.instructions else "(base prompt)"
        print(f"{k:9d} | {record.batch_mae:9.4f} | {label}")
    print(f"\nearly stop: {result.early_stop}")
    print(f"selected iteration {result.best_iteration + 1} (validation MAE {result.best_mae:.4f})")
    print(f"selected instructions: {result.final_instructions.flattened()}")

    # Score the selected prompt against the plain base prompt on three
    # held-out windows the session never saw.
    db = build_hist_db(train, cfg.context_length, cfg.horizon)
    plain_cfg = SessionConfig(
        context_length=96, horizon=24, retrieval_enabled=False,
        refinement_enabled=False, seed=42,
    )
    refined_errors, plain_errors = [], []
    for origin in (960, 1008, 1056):
        window = window_at(values, origin, cfg.context_length, cfg.horizon)
        refined_errors.append(mae(forecast_with(result, window, cfg, db, backend), window.truth))
        plain_errors.append(mae(forecast_reply_for(window, plain_cfg, None, backend).values, window.truth))
    print(f"\nheld-out MAE, refined prompt: {np.mean(refined_errors):.4f}")
    print(f"held-out MAE, plain prompt:   {np.mean(plain_errors):.4f}")


if __name__ == "__main__":
    main()
