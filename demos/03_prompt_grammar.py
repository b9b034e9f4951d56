"""Prompt templates and the reply grammar.

Renders a forecaster prompt (base instructions plus an optional strategy
and synthesized instruction bullets), then parses a grammar-true reply
back into numbers — the same render/parse pair every agent call uses.

Run: python3 demos/03_prompt_grammar.py
"""

from flairr.prompts import (
    DatasetMeta,
    InstructionBlock,
    format_numbers,
    list_strategies,
    parse_forecast_reply,
    render_forecaster_prompt,
)
from flairr.testing import forecast_reply, seasonal_series


def main() -> None:
    print(f"built-in strategies: {', '.join(list_strategies())}\n")

    meta = DatasetMeta(name="demand", description="hourly energy demand", target="demand")
    context = seasonal_series(24, period=24, amplitude=1.0, seed=2)
    instructions = InstructionBlock(
        items=("Anchor on the last full cycle.", "Damp single-step spikes."),
        source_iteration=2,
    )
    prompt = render_forecaster_prompt(
        meta,
        horizon=8,
        history_text=format_numbers(context, 2),
        instructions=instructions,
        strategy="deep-stl",
    )
    print("--- forecaster prompt ---")
    print(prompt)
    print("--- end prompt ---\n")

    # Replies must carry a bracketed value list; reasoning and certainty
    # sections are optional. Parsing enforces the horizon.
    reply_text = forecast_reply(
        [0.91, 0.55, -0.02, -0.58, -0.92, -0.99, -0.76, -0.28],
        reasoning="continuing the daily cycle",
        certainty=70.0,
    )
    reply = parse_forecast_reply(reply_text, horizon=8)
    print(f"parsed values: {reply.values}")
    print(f"parsed certainty: {reply.certainty}")


if __name__ == "__main__":
    main()
