"""
Exercise the counterfactual-prompt pipeline without any network access.

A MockTransport built from an inline prompt -> response table stands in
for the chat endpoint. The demo generates one validated record, shows
the parsed fields, then feeds a malformed response through the parser
to show the violation naming the first missing piece.
"""

from guidelab.par import (
    FormatViolation,
    LlmEndpointConfig,
    MockTransport,
    generate,
    parse_response,
    render_record,
)

PROMPT = ("A timelapse captures an ice cube on a warm plate, "
          "slowly losing its shape as meltwater spreads outward.")

RESPONSE = """[ANALYSIS]
Entities: an ice cube, a warm plate, meltwater
Environment: room temperature air above a heated plate surface
Interactions: heat flows from the plate into the ice, melting it from the base
Temporal evolution: the cube shrinks steadily while a puddle of meltwater grows around it
[COUNTERFACTUAL]
The ice cube is already a spread-out puddle at the start, with no gradual melting or loss of shape over time."""

MALFORMED = """[ANALYSIS]
Entities: an ice cube
Environment: a warm room
Temporal evolution: the cube melts
[COUNTERFACTUAL]
The puddle freezes back into a cube."""


def main():
    cfg = LlmEndpointConfig(base_url="http://localhost:0", model="offline-demo")
    transport = MockTransport({PROMPT: RESPONSE})

    record = generate(cfg, PROMPT, transport)
    print("validated record:")
    print(f"  entities:           {record.analysis.entities}")
    print(f"  environment:        {record.analysis.environment}")
    print(f"  interactions:       {record.analysis.interactions}")
    print(f"  temporal evolution: {record.analysis.temporal_evolution}")
    print(f"  counterfactual:     {record.counterfactual}")

    rendered = render_record(record)
    reparsed = parse_response(rendered, user_prompt=PROMPT,
                              model_id=record.model_id, created_at=record.created_at)
    assert reparsed == record
    print("\nrender -> parse round trip: exact")

    try:
        parse_response(MALFORMED)
    except FormatViolation as exc:
        print(f"\nmalformed response rejected: missing {exc.missing!r}")


if __name__ == "__main__":
    main()
