"""Counterfactual prompt construction through an LLM endpoint.

The pipeline asks a chat-completions endpoint to first analyze the
physical content of a user prompt (entities, environment, interactions,
temporal evolution) and then write one counterfactual version that
keeps the same entities and scene while clearly violating the governing
physical process. Responses must follow a strict two-section format so
they can be parsed mechanically; parsed records pass through cheap
lexical quality heuristics, and failures land in a quarantine file
instead of the corpus.
"""

import json
import os
import re
import time
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from typing import Callable

__all__ = [
    "ANALYSIS_MARKER",
    "COUNTERFACTUAL_MARKER",
    "SUBFIELD_LABELS",
    "REQUIREMENTS",
    "OUTPUT_FORMAT_SPEC",
    "SYSTEM_MESSAGE",
    "Analysis",
    "CounterfactualRecord",
    "LlmEndpointConfig",
    "FormatViolation",
    "TransportError",
    "ValidationFailure",
    "MockTransport",
    "HttpTransport",
    "build_instruction",
    "parse_response",
    "render_record",
    "validate_record",
    "generate",
    "generate_batch",
]

ANALYSIS_MARKER = "[ANALYSIS]"
COUNTERFACTUAL_MARKER = "[COUNTERFACTUAL]"
SUBFIELD_LABELS = ("Entities:", "Environment:", "Interactions:", "Temporal evolution:")

_STOP_WORDS = frozenset(
    """a an the is are was were be been being of in on at as to from with and or its
    it this that these those by for any all no not into upon over under while when
    then than there here their his her our your one two very each both some such
    through during before after again more most other only own same so too can will
    just should now""".split()
)

_VIOLATION_MARKERS = (
    "without",
    "instead",
    "instantly",
    "never",
    "no ",
    "not ",
    "despite",
    "from the start",
    "from the beginning",
    "remains",
    "already",
    "spontaneously",
    "reverses",
    "defies",
)


class FormatViolation(ValueError):
    """Raised when a response does not follow the strict output format.

    The missing attribute names the first absent marker or subfield.
    """

    status = "format_violation"

    def __init__(self, missing: str, detail: str = ""):
        self.missing = missing
        msg = f"format violation: missing {missing}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TransportError(RuntimeError):
    """Raised when the endpoint cannot be reached or returns garbage.

    retryable is False for a failure that a retry cannot fix (no canned
    response, no API key, a client error), so it is raised at once.
    """

    status = "transport_error"

    def __init__(self, message: str, retryable: bool = True):
        self.retryable = retryable
        super().__init__(message)


class ValidationFailure(RuntimeError):
    """Raised when a parsed record fails the quality heuristics."""

    status = "validation_failure"

    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("validation failed: " + "; ".join(self.reasons))


@dataclass(frozen=True)
class Analysis:
    """The four structured reasoning subfields extracted from a response."""

    entities: str
    environment: str
    interactions: str
    temporal_evolution: str


@dataclass(frozen=True)
class CounterfactualRecord:
    user_prompt: str
    analysis: Analysis
    counterfactual: str
    model_id: str = ""
    created_at: str = ""


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str
    model: str
    api_key_env: str = "GUIDELAB_API_KEY"
    timeout: float = 60.0
    max_retries: int = 2

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


_WORKED_EXAMPLE = """Worked example.
User prompt: A timelapse captures the gradual transformation of butter as the temperature rises significantly.
Response:
[ANALYSIS]
Entities: a block of butter, a heat source
Environment: a warm surface whose temperature climbs steadily over the timelapse
Interactions: heat transfers into the butter and drives a solid-to-liquid phase transition
Temporal evolution: the butter first softens at the edges, then progressively melts and spreads into a liquid pool
[COUNTERFACTUAL]
The butter is fully liquefied from the start, with no observable melting process."""


REQUIREMENTS = (
    "Keep the same entities and setting as the original prompt.",
    "Do not repeat or trivially rephrase the original prompt.",
    "The counterfactual must stay visually plausible while clearly violating the physical law governing the scene.",
    "Target the physical process identified in the analysis, not an unrelated one.",
)

OUTPUT_FORMAT_SPEC = (
    "Respond in exactly this format:\n"
    "[ANALYSIS]\n"
    "Entities: <entities present in the scene>\n"
    "Environment: <environmental conditions>\n"
    "Interactions: <how the entities interact physically>\n"
    "Temporal evolution: <how the scene evolves over time>\n"
    "[COUNTERFACTUAL]\n"
    "<one counterfactual version of the prompt>"
)

# The system message of every generation call: framing, worked example, numbered requirements, format spec.
SYSTEM_MESSAGE = "\n\n".join((
    "You prepare counterfactual captions for physics-focused video generation.\n"
    "Given a user prompt describing a scene, first analyze its physical content,"
    " then write exactly one counterfactual version of the prompt.",
    _WORKED_EXAMPLE,
    "Requirements:\n" + "\n".join(f"{i}. {rule}" for i, rule in enumerate(REQUIREMENTS, 1)),
    OUTPUT_FORMAT_SPEC,
))


def build_instruction(user_prompt: str) -> list:
    """The chat messages for one generation call: SYSTEM_MESSAGE, then the user prompt verbatim."""
    if not user_prompt or not user_prompt.strip():
        raise ValueError("user_prompt must be nonempty")
    return [
        {"role": "system", "content": SYSTEM_MESSAGE},
        {"role": "user", "content": user_prompt},
    ]


def _split_sections(text: str) -> tuple:
    lines = text.splitlines()
    try:
        a = next(i for i, ln in enumerate(lines) if ln.strip() == ANALYSIS_MARKER)
    except StopIteration:
        raise FormatViolation(ANALYSIS_MARKER) from None
    try:
        c = next(i for i, ln in enumerate(lines) if i > a and ln.strip() == COUNTERFACTUAL_MARKER)
    except StopIteration:
        raise FormatViolation(COUNTERFACTUAL_MARKER) from None
    return lines[a + 1:c], "\n".join(lines[c + 1:]).strip()


def _parse_subfields(analysis_lines: list) -> dict:
    found = {}
    current = None
    for ln in analysis_lines:
        stripped = ln.strip()
        matched = None
        for label in SUBFIELD_LABELS:
            if stripped.startswith(label):
                matched = label
                break
        if matched is not None:
            current = matched
            found[current] = stripped[len(matched):].strip()
        elif current is not None and stripped:
            found[current] = (found[current] + "\n" + stripped).strip()
    for label in SUBFIELD_LABELS:
        key = label.rstrip(":")
        if label not in found:
            raise FormatViolation(key, "subfield absent from analysis section")
        if not found[label]:
            raise FormatViolation(key, "subfield present but empty")
    return found


def parse_response(
    text: str,
    user_prompt: str = "",
    model_id: str = "",
    created_at: str = "",
) -> CounterfactualRecord:
    """Parse a strict-format response into a record.

    Raises FormatViolation naming the first missing marker or subfield.
    Whitespace around every extracted value is trimmed.
    """
    analysis_lines, counterfactual = _split_sections(text)
    fields = _parse_subfields(analysis_lines)
    if not counterfactual:
        raise FormatViolation("counterfactual", "section present but empty")
    analysis = Analysis(
        entities=fields["Entities:"],
        environment=fields["Environment:"],
        interactions=fields["Interactions:"],
        temporal_evolution=fields["Temporal evolution:"],
    )
    return CounterfactualRecord(
        user_prompt=user_prompt,
        analysis=analysis,
        counterfactual=counterfactual,
        model_id=model_id,
        created_at=created_at,
    )


def render_record(rec: CounterfactualRecord) -> str:
    """Render a record back to the strict response format.

    parse_response of the rendered text reproduces the record exactly
    (round-trip identity for valid records).
    """
    return (
        f"{ANALYSIS_MARKER}\n"
        f"Entities: {rec.analysis.entities}\n"
        f"Environment: {rec.analysis.environment}\n"
        f"Interactions: {rec.analysis.interactions}\n"
        f"Temporal evolution: {rec.analysis.temporal_evolution}\n"
        f"{COUNTERFACTUAL_MARKER}\n"
        f"{rec.counterfactual}"
    )


# a maximal run of characters for which str.isalnum() is true
_WORD = re.compile(r"[^\W_]+")


def _words(text: str) -> list:
    return _WORD.findall(text.lower())


def validate_record(rec: CounterfactualRecord) -> list:
    """Run the lexical quality heuristics; return the failure reasons, empty if the record passes.

    Checks, each failure given as "name: reason" in this order:
    entity_overlap (the counterfactual shares at least one content word
    with the user prompt), violation_marker (it carries a
    negation/violation marker or at least differs from a naive
    restatement), non_repetition (it does not repeat the user prompt).
    Never raises.
    """
    prompt_words = _words(rec.user_prompt)
    cf_words = _words(rec.counterfactual)
    reasons = []
    # only the prompt's words need the content-word filter: a word that passes it passes on both sides
    if not {w for w in prompt_words if len(w) > 2 and w not in _STOP_WORDS}.intersection(cf_words):
        reasons.append("entity_overlap: no shared content words")
    if prompt_words == cf_words:
        cf_lower = rec.counterfactual.lower()
        if not any(m in cf_lower for m in _VIOLATION_MARKERS):
            reasons.append("violation_marker: restates the prompt with no violation cue")
        reasons.append("non_repetition: counterfactual repeats the user prompt")
    return reasons


class MockTransport:
    """Canned responses keyed by user prompt, for offline runs and tests."""

    def __init__(self, responses: dict):
        self.responses = dict(responses)
        self.calls = 0

    @classmethod
    def from_dir(cls, path) -> "MockTransport":
        """Load fixture pairs <name>.prompt.txt / <name>.response.txt (UTF-8) from a directory, in name order."""
        names = set(os.listdir(path))
        responses = {}
        for name in sorted(n for n in names if n.endswith(".prompt.txt")):
            response_name = name[:-len(".prompt.txt")] + ".response.txt"
            if response_name not in names:
                raise FileNotFoundError(f"fixture {name} has no matching response file")
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                prompt = fh.read().strip()
            with open(os.path.join(path, response_name), encoding="utf-8") as fh:
                responses[prompt] = fh.read()
        if not responses:
            raise FileNotFoundError(f"no *.prompt.txt fixtures found in {path}")
        return cls(responses)

    def __call__(self, messages: list, cfg: LlmEndpointConfig) -> str:
        self.calls += 1
        prompt = next((m["content"] for m in reversed(messages) if m["role"] == "user"), None)
        if prompt is None or prompt.strip() not in self.responses:
            raise TransportError(f"no canned response for prompt {prompt!r}", retryable=False)
        return self.responses[prompt.strip()]


class HttpTransport:
    """Live chat-completions client: POST {base_url}/v1/chat/completions."""

    def __call__(self, messages: list, cfg: LlmEndpointConfig) -> str:
        # imported here: requests takes about as long to import as the rest of the CLI,
        # and only live par runs need it
        import requests

        token = os.environ.get(cfg.api_key_env)
        if not token:
            raise TransportError(f"environment variable {cfg.api_key_env} is not set", retryable=False)
        url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        body = {"model": cfg.model, "messages": messages, "temperature": 0.2}
        try:
            resp = requests.post(
                url,
                json=body,
                headers={"Authorization": f"Bearer {token}"},
                timeout=cfg.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if resp.status_code != 200:
            # a client error other than a timeout or a rate limit fails the same way on every retry
            client_error = 400 <= resp.status_code < 500 and resp.status_code not in (408, 429)
            raise TransportError(f"endpoint returned status {resp.status_code}: {resp.text[:200]}",
                                 retryable=not client_error)
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# The failures a generation call can end in; each class names its status.
_FAILURES = (TransportError, FormatViolation, ValidationFailure)


def _appender(path, stack: ExitStack) -> Callable:
    """A function appending one JSON line to path, if not None, opened on first use and flushed per line."""
    fh = None

    def append(obj: dict) -> None:
        nonlocal fh
        if path is None:
            return
        if fh is None:
            fh = stack.enter_context(open(path, "a"))
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
        fh.flush()

    return append


def _call_with_retries(cfg, user_prompt, transport, sleep, clock) -> CounterfactualRecord:
    """Call the endpoint, retrying retryable transport errors with backoff, and parse the response."""
    messages = build_instruction(user_prompt)
    for attempt in range(1 + cfg.max_retries):
        if attempt > 0:
            sleep(0.5 * 2 ** (attempt - 1))
        try:
            text = transport(messages, cfg)
            break
        except TransportError as exc:
            if not exc.retryable:
                raise
            last_exc = exc
    else:
        raise last_exc
    return parse_response(text, user_prompt=user_prompt, model_id=cfg.model, created_at=clock())


def _persist(rec: CounterfactualRecord, to_corpus, to_quarantine) -> CounterfactualRecord:
    """Validate a record, then append it to the corpus, or to the quarantine and raise ValidationFailure."""
    reasons = validate_record(rec)
    # the dict dataclasses.asdict gives, without its deep copy
    row = {**vars(rec), "analysis": vars(rec.analysis)}
    if reasons:
        to_quarantine({"record": row, "reasons": reasons})
        raise ValidationFailure(reasons)
    to_corpus(row)
    return rec


def generate(
    cfg: LlmEndpointConfig,
    user_prompt: str,
    transport: Callable,
    corpus_path=None,
    quarantine_path=None,
    sleep: Callable = time.sleep,
    clock: Callable = _utc_now,
) -> CounterfactualRecord:
    """Build the instruction, call the endpoint, parse, validate, persist.

    Retryable transport errors are retried up to cfg.max_retries with
    exponential backoff; other transport errors and format violations
    are not retried. A record failing validation is appended to
    quarantine_path with its reasons and ValidationFailure is raised; a
    passing record is appended to corpus_path. Pass a fixed clock for
    byte-reproducible records.
    """
    rec = _call_with_retries(cfg, user_prompt, transport, sleep, clock)
    with ExitStack() as stack:
        return _persist(rec, _appender(corpus_path, stack), _appender(quarantine_path, stack))


def generate_batch(
    cfg: LlmEndpointConfig,
    user_prompts: list,
    transport: Callable,
    corpus_path=None,
    quarantine_path=None,
    jobs: int = 1,
    sleep: Callable = time.sleep,
    clock: Callable = _utc_now,
) -> list:
    """Generate for a prompt batch, optionally with bounded parallelism.

    Returns one (prompt, status, detail) tuple per prompt with status
    in {ok, transport_error, format_violation, validation_failure}.
    Endpoint calls may run concurrently; corpus and quarantine appends
    happen in the submitting thread, in prompt order, so the files stay
    well-formed. Each file is opened at most once per call.
    """
    def call_one(prompt):
        return _call_with_retries(cfg, prompt, transport, sleep, clock)

    def settle(prompt, call):
        try:
            rec = _persist(call(), to_corpus, to_quarantine)
        except _FAILURES as exc:
            return (prompt, exc.status, str(exc))
        return (prompt, "ok", rec.counterfactual)

    with ExitStack() as stack:
        to_corpus, to_quarantine = _appender(corpus_path, stack), _appender(quarantine_path, stack)
        if jobs <= 1:
            return [settle(p, partial(call_one, p)) for p in user_prompts]

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(call_one, p) for p in user_prompts]
            return [settle(p, fut.result) for p, fut in zip(user_prompts, futures)]
