"""Series handling: load a CSV, split and scale, slice windows, score MAE.

Run: python3 demos/01_series_basics.py
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from flairr.series import load_csv, mae, split, window_at
from flairr.testing import seasonal_series


def main() -> None:
    # A deterministic hourly-ish series: trend + daily cycle + mild noise.
    values = seasonal_series(400, period=24, trend=0.01, amplitude=0.8, noise=0.05, seed=1)

    with TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "demand.csv"
        # A second value column rides along: load_csv checks its cells too,
        # but keeps only the target.
        rows = [f"{repr(float(v))},{i % 24}" for i, v in enumerate(values)]
        csv_path.write_text("demand,hour\n" + "\n".join(rows) + "\n")
        values = load_csv(csv_path, target="demand")
    print(f"loaded {values.size} rows of 'demand' from {csv_path.name}")

    # Split chronologically, scaling both parts with train-only statistics so
    # no test information leaks into the scaler.
    train, test, scaler = split(values, train_fraction=0.7)
    print(f"train {train.size} rows / test {test.size} rows")
    print(f"train scaler: mean {scaler.mean:.4f}, std {scaler.std:.4f}")

    # A forecasting window: 24 steps of context, the 8 that follow as truth.
    window = window_at(train, t=200, context_length=24, horizon=8)
    print(f"window at t=200: context tail {window.context[-3:].round(3).tolist()}"
          f" -> truth head {window.truth[:3].round(3).tolist()}")

    # Mean absolute error against a naive "repeat the last value" forecast.
    naive = [float(window.context[-1])] * 8
    print(f"naive last-value forecast MAE: {mae(naive, window.truth):.4f}")


if __name__ == "__main__":
    main()
