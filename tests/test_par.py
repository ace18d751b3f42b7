"""Counterfactual prompt pipeline: instruction, parsing, validation, transports.

Everything runs offline. The fixture files under fixtures/par hold
canned endpoint responses; the HTTP client is exercised against a
monkeypatched requests.post, never a live socket.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import requests

from guidelab import par
from guidelab.par import (
    ANALYSIS_MARKER,
    COUNTERFACTUAL_MARKER,
    OUTPUT_FORMAT_SPEC,
    REQUIREMENTS,
    SUBFIELD_LABELS,
    SYSTEM_MESSAGE,
    Analysis,
    CounterfactualRecord,
    FormatViolation,
    HttpTransport,
    LlmEndpointConfig,
    MockTransport,
    TransportError,
    ValidationFailure,
    build_instruction,
    generate,
    generate_batch,
    parse_response,
    render_record,
    validate_record,
)

FIXTURES = Path(__file__).parent / "fixtures" / "par"

CONDENSATION_PROMPT = (
    "A timelapse captures the transformation as water vapor in a humid "
    "environment comes into contact with a cool glass surface"
)
CONDENSATION_COUNTERFACTUAL = (
    "The glass surface is instantly covered in water droplets from the beginning, "
    "without any observable condensation or gradual droplet formation."
)
BUTTER_COUNTERFACTUAL = "The butter is fully liquefied from the start, with no observable melting process."
MAGNIFIER_COUNTERFACTUAL = (
    "As the magnifying glass slides across the page, the lettering beneath the lens "
    "appears shrunken instead of enlarged, defying the refraction of a convex lens."
)


def fixture_text(name):
    return (FIXTURES / name).read_text()


def endpoint(max_retries=2):
    return LlmEndpointConfig(base_url="https://llm.example", model="test-model", max_retries=max_retries)


def test_template_requires_both_markers():
    assert ANALYSIS_MARKER in OUTPUT_FORMAT_SPEC
    assert COUNTERFACTUAL_MARKER in OUTPUT_FORMAT_SPEC


def test_system_message_text_is_pinned():
    # Any edit to the instruction text changes the corpus it produces;
    # this digest makes such an edit a deliberate, reviewed change.
    digest = hashlib.sha256(SYSTEM_MESSAGE.encode()).hexdigest()
    assert digest == "98a6d3fbe7978acbea6d9f4bf29c73a924c95f842864b31b2f9b46d38c6c0f5c"


def test_build_instruction_embeds_prompt_verbatim():
    msgs = build_instruction(CONDENSATION_PROMPT)
    assert msgs[-1] == {"role": "user", "content": CONDENSATION_PROMPT}
    system = msgs[0]["content"]
    assert msgs[0]["role"] == "system"
    assert system == SYSTEM_MESSAGE
    assert ANALYSIS_MARKER in system and COUNTERFACTUAL_MARKER in system
    assert system.count(OUTPUT_FORMAT_SPEC) == 1
    for rule in REQUIREMENTS:
        assert rule in system


def test_build_instruction_rejects_empty_prompt():
    with pytest.raises(ValueError):
        build_instruction("")
    with pytest.raises(ValueError):
        build_instruction("   \n")


def test_parse_condensation_fixture():
    rec = parse_response(fixture_text("condensation.response.txt"),
                         user_prompt=CONDENSATION_PROMPT)
    assert rec.counterfactual == CONDENSATION_COUNTERFACTUAL
    assert rec.analysis.entities == "water vapor, a cool glass surface, water droplets"
    assert rec.analysis.environment
    assert rec.analysis.interactions
    assert rec.analysis.temporal_evolution


def test_parse_butter_fixture():
    rec = parse_response(fixture_text("butter.response.txt"))
    assert rec.counterfactual == BUTTER_COUNTERFACTUAL


def test_instruction_text_follows_the_format_it_asks_for():
    # The worked example and the format spec are rendered from
    # SUBFIELD_LABELS, so the parser reads both; a label spelled apart
    # from SUBFIELD_LABELS would fail here.
    response = par._WORKED_EXAMPLE.split("Response:\n", 1)[1]
    assert par._WORKED_EXAMPLE in SYSTEM_MESSAGE
    rec = parse_response(response)
    assert rec.analysis == Analysis(
        entities="a block of butter, a heat source",
        environment="a warm surface whose temperature climbs steadily over the timelapse",
        interactions="heat transfers into the butter and drives a solid-to-liquid phase transition",
        temporal_evolution="the butter first softens at the edges, then progressively melts and spreads"
                           " into a liquid pool",
    )
    assert rec.counterfactual == BUTTER_COUNTERFACTUAL
    spec = parse_response(OUTPUT_FORMAT_SPEC)
    assert spec.analysis == Analysis("<entities present in the scene>", "<environmental conditions>",
                                     "<how the entities interact physically>", "<how the scene evolves over time>")
    assert spec.counterfactual == "<one counterfactual version of the prompt>"


def test_parse_magnifier_fixture():
    rec = parse_response(fixture_text("magnifier.response.txt"))
    assert rec.counterfactual == MAGNIFIER_COUNTERFACTUAL


def test_parse_names_missing_analysis_marker():
    with pytest.raises(FormatViolation) as exc:
        parse_response(fixture_text("malformed_missing_section.txt"))
    assert exc.value.missing == ANALYSIS_MARKER


def test_parse_names_missing_counterfactual_marker():
    text = "[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\nTemporal evolution: w\nno second marker"
    with pytest.raises(FormatViolation) as exc:
        parse_response(text)
    assert exc.value.missing == COUNTERFACTUAL_MARKER


def test_parse_names_missing_subfield():
    with pytest.raises(FormatViolation) as exc:
        parse_response(fixture_text("malformed_missing_subfield.txt"))
    assert exc.value.missing == "Interactions"


def test_parse_rejects_empty_subfield_and_counterfactual():
    text = ("[ANALYSIS]\nEntities:\nEnvironment: y\nInteractions: z\n"
            "Temporal evolution: w\n[COUNTERFACTUAL]\nsomething")
    with pytest.raises(FormatViolation) as exc:
        parse_response(text)
    assert exc.value.missing == "Entities"
    text2 = ("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
             "Temporal evolution: w\n[COUNTERFACTUAL]\n   \n")
    with pytest.raises(FormatViolation) as exc2:
        parse_response(text2)
    assert exc2.value.missing == "counterfactual"


def test_parse_joins_continuation_lines_of_a_subfield():
    # A continuation line joins its label's value with a newline, blank
    # lines are skipped, and a line before the first label is ignored.
    text = ("[ANALYSIS]\n"
            "a preamble line before any label\n"
            "Entities:\n"
            "   a block of butter  \n"
            "\n"
            "  a heat source\n"
            "Environment: a warm surface\n"
            "Interactions: heat flows in\n"
            "\n"
            "and melts it\n"
            "Temporal evolution: it softens\n"
            "[COUNTERFACTUAL]\n"
            "The butter is liquid from the start.")
    rec = parse_response(text)
    assert rec.analysis == Analysis("a block of butter\na heat source", "a warm surface",
                                    "heat flows in\nand melts it", "it softens")
    assert rec.counterfactual == "The butter is liquid from the start."


def test_round_trip_multi_line_subfields():
    rec = CounterfactualRecord(
        user_prompt="Ice melts on a hot plate.",
        analysis=Analysis("an ice cube\na hot plate", "a kitchen", "heat flows\ninto the ice\nfast",
                          "the cube shrinks"),
        counterfactual="The ice cube grows on the hot plate.",
    )
    assert parse_response(render_record(rec), user_prompt=rec.user_prompt) == rec


def test_analysis_fields_follow_subfield_labels():
    # render_record pairs SUBFIELD_LABELS with the Analysis fields in order.
    assert [f.name for f in fields(Analysis)] == [
        label.rstrip(":").lower().replace(" ", "_") for label in SUBFIELD_LABELS]


def test_round_trip_hand_built_record():
    rec = CounterfactualRecord(
        user_prompt="A candle burns down to a stub over an evening.",
        analysis=Analysis(
            entities="a lit candle, melting wax",
            environment="a still indoor room",
            interactions="the flame consumes wax drawn up the wick",
            temporal_evolution="the candle shortens steadily as wax melts and burns",
        ),
        counterfactual="The candle grows taller as it burns, wax accumulating upward from the flame.",
        model_id="test-model",
        created_at="2026-01-01T00:00:00+00:00",
    )
    parsed = parse_response(render_record(rec),
                            user_prompt=rec.user_prompt, model_id=rec.model_id,
                            created_at=rec.created_at)
    assert parsed == rec


def test_round_trip_randomized_records():
    # 20 random records built from a word pool; render -> parse must be
    # the identity. Counterfactuals are sometimes multi-line.
    rng = np.random.default_rng(99)
    pool = ("flywheel magnet pendulum droplet piston lens mirror flame vapor crystal "
            "gear spring rail marble ribbon turbine funnel prism filament bubble").split()

    def words(lo, hi):
        n = int(rng.integers(lo, hi))
        return " ".join(pool[int(i)] for i in rng.integers(0, len(pool), size=n))

    for _ in range(20):
        cf = words(4, 9)
        if rng.random() < 0.4:
            cf = cf + "\n" + words(3, 6)
        rec = CounterfactualRecord(
            user_prompt=words(4, 9),
            analysis=Analysis(
                entities=words(2, 5),
                environment=words(2, 5),
                interactions=words(3, 6),
                temporal_evolution=words(3, 6),
            ),
            counterfactual=cf,
            model_id="m",
            created_at="2026-01-01T00:00:00+00:00",
        )
        parsed = parse_response(render_record(rec),
                                user_prompt=rec.user_prompt, model_id="m",
                                created_at=rec.created_at)
        assert parsed == rec


def test_validate_condensation_passes():
    rec = parse_response(fixture_text("condensation.response.txt"),
                         user_prompt=CONDENSATION_PROMPT)
    assert validate_record(rec) == []


def test_validate_rejects_repetition():
    rec = CounterfactualRecord(
        user_prompt="A ball rolls down a ramp.",
        analysis=Analysis("a", "b", "c", "d"),
        counterfactual="A ball rolls down a ramp.",
    )
    assert validate_record(rec) == ["non_repetition: counterfactual repeats the user prompt"]


def test_validate_rejects_disjoint_vocabulary():
    rec = CounterfactualRecord(
        user_prompt="A ball rolls down a ramp toward a wall.",
        analysis=Analysis("a", "b", "c", "d"),
        counterfactual="Objects behave strangely here.",
    )
    assert validate_record(rec) == ["entity_overlap: no shared content words"]


def test_validate_never_throws():
    rec = CounterfactualRecord(user_prompt="", analysis=Analysis("", "", "", ""), counterfactual="")
    assert validate_record(rec) == [
        "entity_overlap: no shared content words",
        "non_repetition: counterfactual repeats the user prompt",
    ]


# code points around the edges of str.isalnum and str.lower: Latin-1 and Latin Extended (İ, ß, controls,
# "_"), the Kelvin sign, a combining dot above, CJK, Arabic-Indic digits, fullwidth forms, a line separator
WORD_ALPHABET = [chr(c) for c in (*range(0x250), 0x212A, 0x307, *range(0x4E00, 0x4E08), *range(0x660, 0x66A),
                                  *range(0xFF10, 0xFF1A), *range(0xFF21, 0xFF27), 0xFF3F, 0xFF5E, 0x2028)]


def test_words_split_where_the_alnum_regex_does():
    rng = random.Random(17)
    for _ in range(10_000):
        text = "".join(rng.choices(WORD_ALPHABET, k=rng.randrange(24)))
        assert par._words(text) == re.findall(r"[^\W_]+", text.lower()), repr(text)


def parse_response_by_prefix(text, user_prompt="", model_id="", created_at=""):
    """parse_response with each label found by str.startswith: the reference for its lookup by the text through
    the first colon."""
    lines = text.splitlines()
    found, current, started = {}, None, False
    for c, line in enumerate(lines):
        stripped = line.strip()
        if not started:
            started = stripped == ANALYSIS_MARKER
        elif stripped == COUNTERFACTUAL_MARKER:
            break
        else:
            for label in SUBFIELD_LABELS:
                if stripped.startswith(label):
                    current = label
                    found[label] = stripped[len(label):].strip()
                    break
            else:
                if current is not None and stripped:
                    found[current] = (found[current] + "\n" + stripped).strip()
    else:
        raise FormatViolation(COUNTERFACTUAL_MARKER if started else ANALYSIS_MARKER)
    for label in SUBFIELD_LABELS:
        if not found.get(label):
            detail = "subfield present but empty" if label in found else "subfield absent from analysis section"
            raise FormatViolation(label.rstrip(":"), detail)
    counterfactual = "\n".join(lines[c + 1:]).strip()
    if not counterfactual:
        raise FormatViolation("counterfactual", "section present but empty")
    analysis = Analysis(*(found[label] for label in SUBFIELD_LABELS))
    return CounterfactualRecord(user_prompt, analysis, counterfactual, model_id, created_at)


def parse_outcome(parse, text):
    try:
        return parse(text, user_prompt="p", model_id="m", created_at="t")
    except FormatViolation as exc:
        return ("FormatViolation", exc.missing, str(exc))


# reply lines that sit near a label: no space, a space before the colon, a second colon, lowercase,
# a label in the middle of a line, no colon at all, blank and padded lines
NEAR_LABEL_LINES = (
    "Entities:x", "Entities :x", "Entities: a, b", "entities: x", "ENTITIES: x", "Entities", "the Entities: x",
    "Environment:", "Environment: a room", "Environment;x", " Environment:  y ", "Interactions: z", "Interactions",
    "Interactions:Entities: z", "Temporal evolution: a: b", "Temporal evolution:", "Temporal evolution x",
    "Temporal  evolution: w", "temporal evolution: w", "note: Temporal evolution: w", "Temporal evolution:: w",
    "no colon here", ":", "", "   ", "\t Entities: tabbed", "[ANALYSIS]", "[COUNTERFACTUAL]", "a counterfactual",
)


def test_parse_response_equals_the_prefix_loop_on_perturbed_replies():
    rng = random.Random(5)
    base = render_record(CounterfactualRecord("p", Analysis("x", "y", "z", "w"), "cf")).split("\n")
    for _ in range(3000):
        lines = list(base)
        for _ in range(rng.randrange(1, 6)):
            edit = rng.randrange(3)
            if edit == 0 and lines:
                del lines[rng.randrange(len(lines))]
            elif edit == 1 and lines:
                lines[rng.randrange(len(lines))] = rng.choice(NEAR_LABEL_LINES)
            else:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(NEAR_LABEL_LINES))
        text = "\n".join(lines)
        assert parse_outcome(parse_response, text) == parse_outcome(parse_response_by_prefix, text), text


def test_subfield_labels_end_at_their_only_colon():
    # parse_response finds a line's label from its text through the first colon, which is exact only so
    for label in SUBFIELD_LABELS:
        assert label.count(":") == 1 and label.endswith(":"), label


def test_records_are_written_as_json_dumps_with_sorted_keys(tmp_path):
    restated = "Une bougie fond sur la table, café 水 \u00e9t\u00e9."
    transport = MockTransport.from_dir(FIXTURES)
    transport.responses[restated] = render_record(
        CounterfactualRecord(restated, Analysis("une bougie", "la table", "chaleur", "fond"), restated))
    transport.responses["A ball rolls down a ramp."] = HOLLOW_RESPONSE
    corpus, quarantine = tmp_path / "corpus.jsonl", tmp_path / "quarantine.jsonl"
    results = generate_batch(endpoint(), FIXTURE_PROMPTS + [restated, "A ball rolls down a ramp."], transport,
                             corpus_path=corpus, quarantine_path=quarantine)
    assert [status for _, status, _ in results] == ["ok"] * 3 + ["validation_failure"] * 2
    for path, count in ((corpus, 3), (quarantine, 2)):
        lines = path.read_text().splitlines()
        assert len(lines) == count
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)


def test_generate_persists_validated_record(tmp_path):
    transport = MockTransport({CONDENSATION_PROMPT: fixture_text("condensation.response.txt")})
    corpus = tmp_path / "corpus.jsonl"
    rec = generate(endpoint(), CONDENSATION_PROMPT, transport,
                   corpus_path=corpus, clock=lambda: "2026-01-01T00:00:00+00:00")
    assert rec.counterfactual == CONDENSATION_COUNTERFACTUAL
    assert rec.model_id == "test-model"
    lines = corpus.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == asdict(rec)


def test_generate_deterministic_with_fixed_clock(tmp_path):
    transport = MockTransport({CONDENSATION_PROMPT: fixture_text("condensation.response.txt")})
    clock = lambda: "2026-01-01T00:00:00+00:00"
    a = generate(endpoint(), CONDENSATION_PROMPT, transport, clock=clock)
    b = generate(endpoint(), CONDENSATION_PROMPT, transport, clock=clock)
    assert a == b
    assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)


def counted(transport):
    """A wrapper that calls the transport, and a list that gains one entry per call of it."""
    calls = []

    def call(messages, cfg):
        calls.append(1)
        return transport(messages, cfg)

    return call, calls


def test_generate_does_not_retry_format_violations():
    transport, calls = counted(MockTransport({"p": fixture_text("malformed_missing_section.txt")}))
    sleeps = []
    with pytest.raises(FormatViolation):
        generate(endpoint(max_retries=2), "p", transport, sleep=sleeps.append)
    assert len(calls) == 1
    assert sleeps == []


def test_generate_retries_transport_errors_with_backoff():
    calls = []

    def flaky(messages, cfg):
        calls.append(1)
        if len(calls) < 3:
            raise TransportError("down")
        return fixture_text("condensation.response.txt")

    sleeps = []
    rec = generate(endpoint(max_retries=2), CONDENSATION_PROMPT, flaky,
                   sleep=sleeps.append)
    assert rec.counterfactual == CONDENSATION_COUNTERFACTUAL
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]


def test_generate_raises_after_exhausting_retries():
    calls = []

    def dead(messages, cfg):
        calls.append(1)
        raise TransportError(f"attempt {len(calls)} failed")

    sleeps = []
    # the last attempt's error surfaces, not an earlier one's
    with pytest.raises(TransportError, match="^attempt 3 failed$"):
        generate(endpoint(max_retries=2), "p", dead, sleep=sleeps.append)
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]


def test_retries_are_bounded():
    # The backoff doubles per retry, so the bound caps the last wait at 256 s; 30 retries scheduled one of 8.5 years.
    calls = []

    def dead(messages, cfg):
        calls.append(1)
        raise TransportError("still down")

    sleeps = []
    with pytest.raises(TransportError):
        generate(endpoint(max_retries=LlmEndpointConfig.MAX_RETRIES), "p", dead, sleep=sleeps.append)
    assert len(calls) == 11
    assert sleeps == [0.5 * 2 ** k for k in range(10)]
    assert sum(sleeps) == 511.5


def test_generate_does_not_retry_unknown_mock_prompt():
    # A missing canned response is missing on every retry; it used to sleep 1.5 s of backoff.
    transport, calls = counted(MockTransport({CONDENSATION_PROMPT: fixture_text("condensation.response.txt")}))
    sleeps = []
    with pytest.raises(TransportError) as exc:
        generate(endpoint(max_retries=2), "never seen", transport, sleep=sleeps.append)
    assert not exc.value.retryable
    assert len(calls) == 1
    assert sleeps == []


def test_generate_quarantines_validation_failures(tmp_path):
    bad = ("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
           "Temporal evolution: w\n[COUNTERFACTUAL]\nUnrelated gibberish entirely.")
    transport = MockTransport({"A ball rolls down a ramp.": bad})
    corpus = tmp_path / "corpus.jsonl"
    quarantine = tmp_path / "quarantine.jsonl"
    with pytest.raises(ValidationFailure) as exc:
        generate(endpoint(), "A ball rolls down a ramp.", transport,
                 corpus_path=corpus, quarantine_path=quarantine)
    assert exc.value.reasons
    assert not corpus.exists()
    entry = json.loads(quarantine.read_text().strip())
    assert entry["reasons"]
    assert entry["record"]["counterfactual"] == "Unrelated gibberish entirely."


def test_generate_batch_statuses(tmp_path):
    responses = {
        CONDENSATION_PROMPT: fixture_text("condensation.response.txt"),
        "broken": fixture_text("malformed_missing_section.txt"),
        "hollow": ("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
                   "Temporal evolution: w\n[COUNTERFACTUAL]\nUnrelated gibberish entirely."),
    }
    transport = MockTransport(responses)
    prompts = [CONDENSATION_PROMPT, "broken", "hollow", "unknown prompt"]
    corpus = tmp_path / "corpus.jsonl"
    quarantine = tmp_path / "quarantine.jsonl"
    results = generate_batch(endpoint(max_retries=0), prompts, transport,
                             corpus_path=corpus, quarantine_path=quarantine, sleep=lambda s: None)
    statuses = {p: s for p, s, _ in results}
    assert statuses == {
        CONDENSATION_PROMPT: "ok",
        "broken": "format_violation",
        "hollow": "validation_failure",
        "unknown prompt": "transport_error",
    }
    assert [p for p, _, _ in results] == prompts
    assert len(corpus.read_text().strip().splitlines()) == 1
    assert len(quarantine.read_text().strip().splitlines()) == 1


def test_generate_batch_parallel_matches_serial(tmp_path):
    transport = MockTransport({
        CONDENSATION_PROMPT: fixture_text("condensation.response.txt"),
        "unknown": "",
    })
    prompts = [CONDENSATION_PROMPT, "unknown"]
    serial = generate_batch(endpoint(max_retries=0), prompts,
                            transport, sleep=lambda s: None)
    parallel = generate_batch(endpoint(max_retries=0), prompts,
                              transport, jobs=2, sleep=lambda s: None)
    assert [(p, s) for p, s, _ in serial] == [(p, s) for p, s, _ in parallel]


FIXTURE_PROMPTS = [fixture_text(f"{name}.prompt.txt").strip() for name in ("condensation", "butter", "magnifier")]
HOLLOW_RESPONSE = ("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
                   "Temporal evolution: w\n[COUNTERFACTUAL]\nUnrelated gibberish entirely.")


@pytest.mark.parametrize("target", ["corpus", "quarantine"])
def test_generate_batch_flushes_each_record_before_the_next_call(tmp_path, target):
    # A killed run must keep every record settled before the kill, so each
    # line appended to the corpus or the quarantine is on disk before the
    # next endpoint call starts.
    corpus, quarantine = tmp_path / "corpus.jsonl", tmp_path / "quarantine.jsonl"
    mock = MockTransport.from_dir(FIXTURES)
    if target == "quarantine":
        mock.responses.update(dict.fromkeys(FIXTURE_PROMPTS, HOLLOW_RESPONSE))
    path = tmp_path / f"{target}.jsonl"
    on_disk = []

    def prompt_of(row):
        return row["user_prompt"] if target == "corpus" else row["record"]["user_prompt"]

    def transport(messages, cfg):
        on_disk.append([prompt_of(json.loads(line)) for line in path.read_text().splitlines()]
                       if path.exists() else [])
        return mock(messages, cfg)

    results = generate_batch(endpoint(), FIXTURE_PROMPTS, transport, corpus_path=corpus, quarantine_path=quarantine)
    expected = "ok" if target == "corpus" else "validation_failure"
    assert [status for _, status, _ in results] == [expected] * 3
    assert on_disk == [[], FIXTURE_PROMPTS[:1], FIXTURE_PROMPTS[:2]]
    assert [prompt_of(json.loads(line)) for line in path.read_text().splitlines()] == FIXTURE_PROMPTS


@pytest.mark.parametrize("jobs", [1, 2])
def test_generate_batch_opens_each_file_once(tmp_path, monkeypatch, jobs):
    # Opening the corpus once per record cost one open per prompt.
    import guidelab.par as par

    transport = MockTransport.from_dir(FIXTURES)
    transport.responses["A ball rolls down a ramp."] = HOLLOW_RESPONSE
    prompts = FIXTURE_PROMPTS + ["A ball rolls down a ramp.", "A ball rolls down a ramp."]
    corpus, quarantine = tmp_path / "corpus.jsonl", tmp_path / "quarantine.jsonl"
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(par, "open", counting_open, raising=False)
    results = generate_batch(endpoint(), prompts, transport, corpus_path=corpus,
                             quarantine_path=quarantine, jobs=jobs)
    assert [status for _, status, _ in results] == ["ok"] * 3 + ["validation_failure"] * 2
    assert sorted(opened) == [corpus, quarantine]
    assert len(corpus.read_text().splitlines()) == 3
    assert len(quarantine.read_text().splitlines()) == 2


def test_generate_batch_files_are_pinned(tmp_path):
    # The corpus and quarantine bytes of the shipped fixtures, with a fixed
    # clock; any change to parsing, validation or serialisation shows here.
    transport = MockTransport.from_dir(FIXTURES)
    transport.responses["A ball rolls down a ramp."] = HOLLOW_RESPONSE
    transport.responses["broken"] = fixture_text("malformed_missing_subfield.txt")
    prompts = FIXTURE_PROMPTS + ["A ball rolls down a ramp.", "broken", "unknown prompt"]
    corpus, quarantine = tmp_path / "corpus.jsonl", tmp_path / "quarantine.jsonl"
    results = generate_batch(endpoint(max_retries=0), prompts, transport, corpus_path=corpus,
                             quarantine_path=quarantine, clock=lambda: "2026-01-01T00:00:00+00:00")
    assert [status for _, status, _ in results] == [
        "ok", "ok", "ok", "validation_failure", "format_violation", "transport_error"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (corpus, quarantine)}
    assert digests == {
        "corpus.jsonl": "d38a76fc7a2063eae95a8fe0e0c6b65acf3da115445572aae63ceb1e7cae4992",
        "quarantine.jsonl": "b783fe7ec4f587e14cc4c3983092e1e4bb033b57454c73a907a3cf0dbcb465b4",
    }


def test_mock_transport_from_dir():
    transport = MockTransport.from_dir(FIXTURES)
    assert len(transport.responses) == 3
    msgs = build_instruction(CONDENSATION_PROMPT)
    assert transport(msgs, endpoint()) == fixture_text("condensation.response.txt")
    with pytest.raises(TransportError):
        transport(build_instruction("never seen"), endpoint())


def test_mock_transport_from_dir_requires_pairs(tmp_path):
    (tmp_path / "orphan.prompt.txt").write_text("hello")
    with pytest.raises(FileNotFoundError, match=r"^fixture orphan\.prompt\.txt has no matching response file$"):
        MockTransport.from_dir(tmp_path)
    with pytest.raises(FileNotFoundError):
        MockTransport.from_dir(tmp_path / "empty_missing")


def test_mock_transport_from_dir_needs_a_fixture(tmp_path):
    (tmp_path / "notes.txt").write_text("not a fixture")
    with pytest.raises(FileNotFoundError) as exc:
        MockTransport.from_dir(tmp_path)
    assert str(exc.value) == f"no *.prompt.txt fixtures found in {tmp_path}"


def test_mock_transport_from_dir_reads_utf8(tmp_path):
    prompt = "Une bougie fond près d'une fenêtre gelée — 蜡烛 melts"
    response = render_record(CounterfactualRecord(
        user_prompt=prompt, analysis=Analysis("une bougie", "une fenêtre", "la chaleur", "elle fond"),
        counterfactual="La bougie près de la fenêtre grandit au lieu de fondre — 蜡烛 never melts."))
    (tmp_path / "candle.prompt.txt").write_text(prompt + "\n", encoding="utf-8")
    (tmp_path / "candle.response.txt").write_text(response, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    results = generate_batch(endpoint(), [prompt], MockTransport.from_dir(tmp_path), corpus_path=corpus)
    assert results[0][1] == "ok"
    record = json.loads(corpus.read_text())
    assert record["user_prompt"] == prompt
    assert record["counterfactual"].endswith("蜡烛 never melts.")


def text_mode_responses(path):
    """What from_dir read through text-mode open: the reference for its raw reads."""
    responses = {}
    for name in sorted(n for n in os.listdir(path) if n.endswith(".prompt.txt")):
        with open(path / name, encoding="utf-8") as fh:
            prompt = fh.read().strip()
        with open(path / name.replace(".prompt.txt", ".response.txt"), encoding="utf-8") as fh:
            responses[prompt] = fh.read()
    return responses


def test_mock_transport_from_dir_translates_newlines_as_text_mode(tmp_path):
    # Fixtures are read as raw bytes, so CRLF and lone CR must become LF
    # exactly as text-mode open turns them, or parsing would see other text.
    pairs = {
        "crlf": (b"crlf prompt\r\n", b"[ANALYSIS]\r\nEntities: a\r\n\r\n[COUNTERFACTUAL]\r\nb\r\n"),
        "cr": (b"cr prompt\r", b"[ANALYSIS]\rEntities: a\r\r[COUNTERFACTUAL]\rb\r"),
        "mixed": (b"\rmixed prompt\n\r", b"one\r\r\ntwo\n\rthree\r\n\r\nfour"),
    }
    for name, (prompt, response) in pairs.items():
        (tmp_path / f"{name}.prompt.txt").write_bytes(prompt)
        (tmp_path / f"{name}.response.txt").write_bytes(response)
    responses = MockTransport.from_dir(tmp_path).responses
    assert responses == text_mode_responses(tmp_path)
    assert responses["cr prompt"] == "[ANALYSIS]\nEntities: a\n\n[COUNTERFACTUAL]\nb\n"
    assert not any("\r" in text for pair in responses.items() for text in pair)


def test_mock_transport_from_dir_reads_large_files_whole(tmp_path):
    # Files are read in 64 KiB chunks: a CRLF and a two-byte character each
    # straddle a chunk boundary here, and the text must come back whole.
    response = "a" * 65535 + "\r\n" + "é" * 40000 + "\r\nend"
    (tmp_path / "big.prompt.txt").write_text("big prompt\n", encoding="utf-8")
    (tmp_path / "big.response.txt").write_bytes(response.encode("utf-8"))
    responses = MockTransport.from_dir(tmp_path).responses
    assert responses == text_mode_responses(tmp_path)
    assert responses["big prompt"] == response.replace("\r\n", "\n")


def test_par_generate_rejects_invalid_utf8_fixture(tmp_path, capsys):
    from guidelab.cli import main

    (tmp_path / "bad.prompt.txt").write_text("a prompt\n")
    (tmp_path / "bad.response.txt").write_bytes(b"[ANALYSIS]\n\xff\xfe not UTF-8\n")
    config, prompts, out = tmp_path / "config.json", tmp_path / "prompts.txt", tmp_path / "out"
    config.write_text(json.dumps({"output": {"directory": str(out)}}))
    prompts.write_text("a prompt\n")
    assert main(["par-generate", "--config", str(config), str(prompts), "--mock", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"par-generate: error: fixture {tmp_path / 'bad.response.txt'} is not valid UTF-8")
    assert not (out / "corpus.jsonl").exists()


def test_mock_transport_from_dir_later_name_wins(tmp_path):
    for name, answer in (("a", "first"), ("b", "second")):
        (tmp_path / f"{name}.prompt.txt").write_text("same prompt\n")
        (tmp_path / f"{name}.response.txt").write_text(answer)
    assert MockTransport.from_dir(tmp_path).responses == {"same prompt": "second"}


def test_endpoint_config_validation():
    with pytest.raises(ValueError, match="timeout must be > 0"):
        LlmEndpointConfig(base_url="https://llm.example", model="m", timeout=0.0)
    # read_config refuses NaN and Infinity in a file, so only a library caller reaches this check
    for timeout in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^timeout must be finite and > 0, got {timeout}$"):
            LlmEndpointConfig(base_url="https://llm.example", model="m", timeout=timeout)
    with pytest.raises(ValueError, match="max_retries must be from 0 to 10, got -1"):
        LlmEndpointConfig(base_url="https://llm.example", model="m", max_retries=-1)
    with pytest.raises(ValueError, match="max_retries must be from 0 to 10, got 11"):
        LlmEndpointConfig(base_url="https://llm.example", model="m", max_retries=LlmEndpointConfig.MAX_RETRIES + 1)
    with pytest.raises(ValueError, match="^base_url must start with http:// or https://, got 'x'$"):
        LlmEndpointConfig(base_url="x", model="m")
    # requests refuses a URL without a host before it connects, and it used to be retried as a transient failure
    for base_url in ("http://", "https://:8000", "http:///x"):
        with pytest.raises(ValueError, match=f"^base_url must name a host, got '{re.escape(base_url)}'$"):
            LlmEndpointConfig(base_url=base_url, model="m")
    # requests reads the scheme without regard to case
    assert LlmEndpointConfig(base_url="HTTPS://llm.example", model="m").base_url == "HTTPS://llm.example"


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def test_http_transport_request_shape(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, body=json, headers=headers, timeout=timeout)
        return FakeResponse(payload={"choices": [{"message": {"content": "reply text"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("GUIDELAB_API_KEY", "sekret")
    cfg = LlmEndpointConfig(base_url="https://llm.example/", model="test-model", timeout=12.5)
    msgs = build_instruction("a prompt")
    out = HttpTransport()(msgs, cfg)
    assert out == "reply text"
    assert seen["url"] == "https://llm.example/v1/chat/completions"
    assert seen["headers"] == {"Authorization": "Bearer sekret"}
    assert seen["timeout"] == 12.5
    assert seen["body"] == {"model": "test-model", "messages": msgs, "temperature": 0.2}


def test_http_transport_error_paths(monkeypatch):
    cfg = LlmEndpointConfig(base_url="https://llm.example", model="m")
    msgs = [{"role": "user", "content": "p"}]

    monkeypatch.delenv("GUIDELAB_API_KEY", raising=False)
    with pytest.raises(TransportError):
        HttpTransport()(msgs, cfg)

    monkeypatch.setenv("GUIDELAB_API_KEY", "k")
    monkeypatch.setattr(requests, "post", lambda *a, **kw: FakeResponse(status_code=503, text="busy"))
    with pytest.raises(TransportError):
        HttpTransport()(msgs, cfg)

    def boom(*a, **kw):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", boom)
    with pytest.raises(TransportError):
        HttpTransport()(msgs, cfg)

    monkeypatch.setattr(requests, "post", lambda *a, **kw: FakeResponse(payload={"nope": []}))
    with pytest.raises(TransportError):
        HttpTransport()(msgs, cfg)


def http_generate_failure(monkeypatch, respond):
    """Run generate through HttpTransport against a fake requests.post; give (posts made, sleeps)."""
    posts, sleeps = [], []

    def fake_post(*args, **kwargs):
        posts.append(args)
        return respond()

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError):
        generate(endpoint(max_retries=2), "p", HttpTransport(), sleep=sleeps.append)
    return len(posts), sleeps


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_client_errors_are_not_retried(monkeypatch, status):
    monkeypatch.setenv("GUIDELAB_API_KEY", "k")
    assert http_generate_failure(monkeypatch, lambda: FakeResponse(status_code=status)) == (1, [])


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_http_timeouts_rate_limits_and_server_errors_are_retried(monkeypatch, status):
    monkeypatch.setenv("GUIDELAB_API_KEY", "k")
    assert http_generate_failure(monkeypatch, lambda: FakeResponse(status_code=status)) == (3, [0.5, 1.0])


def test_http_connection_errors_are_retried(monkeypatch):
    def refuse():
        raise requests.ConnectionError("refused")

    monkeypatch.setenv("GUIDELAB_API_KEY", "k")
    assert http_generate_failure(monkeypatch, refuse) == (3, [0.5, 1.0])


def test_http_missing_api_key_is_not_retried(monkeypatch):
    monkeypatch.delenv("GUIDELAB_API_KEY", raising=False)
    assert http_generate_failure(monkeypatch, FakeResponse) == (0, [])


@pytest.mark.parametrize("content", [None, 5])
def test_http_non_string_content_is_retried_as_malformed(monkeypatch, content):
    # A null or numeric content used to reach parse_response and end the batch in an AttributeError.
    monkeypatch.setenv("GUIDELAB_API_KEY", "k")
    reply = {"choices": [{"message": {"content": content}}]}
    assert http_generate_failure(monkeypatch, lambda: FakeResponse(payload=reply)) == (3, [0.5, 1.0])
    results = generate_batch(endpoint(), ["p"], HttpTransport(), sleep=lambda s: None)
    assert [status for _, status, _ in results] == ["transport_error"]
    assert "malformed completion payload" in results[0][2]


def test_cli_import_leaves_requests_unloaded():
    # Only a live HttpTransport call needs requests; every other command
    # skips its import cost.
    import guidelab

    code = "import sys, guidelab.cli; print('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(guidelab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
