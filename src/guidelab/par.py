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
import math
import os
import time
import urllib.parse
from collections import namedtuple
from contextlib import ExitStack
from datetime import datetime, timezone
from functools import partial
from typing import Callable

from guidelab.config import MISSING, ConfigError, built, field, read_text

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
    "endpoint_config",
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


# The four structured reasoning subfields extracted from a response.
Analysis = namedtuple("Analysis", "entities environment interactions temporal_evolution")

CounterfactualRecord = namedtuple("CounterfactualRecord", "user_prompt analysis counterfactual model_id created_at",
                                  defaults=("", ""))


class LlmEndpointConfig(namedtuple("LlmEndpointConfig", "base_url model api_key_env timeout max_retries",
                                   defaults=("GUIDELAB_API_KEY", 60.0, 2))):
    __slots__ = ()
    # retry k waits 0.5 * 2**(k - 1) s first, so at this bound the last wait is 256 s and all of them 511.5 s
    MAX_RETRIES = 10

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ValueError(f"base_url must start with http:// or https://, got {self.base_url!r}")
        if urllib.parse.urlsplit(self.base_url).hostname is None:
            raise ValueError(f"base_url must name a host, got {self.base_url!r}")
        if not math.isfinite(self.timeout):
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if not 0 <= self.max_retries <= self.MAX_RETRIES:
            raise ValueError(f"max_retries must be from 0 to {self.MAX_RETRIES}, got {self.max_retries}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its result too


def endpoint_config(raw: dict, mock: bool) -> LlmEndpointConfig:
    """The endpoint settings in a config's 'par' section, whose keys and defaults are LlmEndpointConfig's fields.

    A field's kind is its default's type; base_url and model, which have
    no default, are strings. Without mock 'par' is required, with each
    field that has no default.
    """
    names, defaults = LlmEndpointConfig._fields, LlmEndpointConfig._field_defaults
    par = field(raw, "par", "par", dict, None, keys=names)
    if par is None and not mock:
        raise ConfigError("field 'par' (endpoint settings) is required without --mock")
    # under mock, base_url and model default to an endpoint that is never called
    par = {"base_url": "http://localhost:0", "model": "mock-model", **(par or {})} if mock else par
    return built("par", LlmEndpointConfig, **{name: field(par, name, f"par.{name}", type(defaults.get(name, "")),
                                                          defaults.get(name, MISSING)) for name in names})


def render_record(rec: CounterfactualRecord) -> str:
    """Render a record back to the strict response format, one line per subfield in SUBFIELD_LABELS order.

    parse_response of the rendered text reproduces the record exactly
    (round-trip identity for valid records).
    """
    subfields = (f"{label} {value}" for label, value in zip(SUBFIELD_LABELS, rec.analysis))
    return "\n".join((ANALYSIS_MARKER, *subfields, COUNTERFACTUAL_MARKER, rec.counterfactual))


# The worked example and the format spec are rendered like any record, so their labels are SUBFIELD_LABELS.
_WORKED_RECORD = CounterfactualRecord(
    "A timelapse captures the gradual transformation of butter as the temperature rises significantly.",
    Analysis(
        "a block of butter, a heat source",
        "a warm surface whose temperature climbs steadily over the timelapse",
        "heat transfers into the butter and drives a solid-to-liquid phase transition",
        "the butter first softens at the edges, then progressively melts and spreads into a liquid pool",
    ),
    "The butter is fully liquefied from the start, with no observable melting process.",
)
_WORKED_EXAMPLE = (f"Worked example.\nUser prompt: {_WORKED_RECORD.user_prompt}\n"
                   f"Response:\n{render_record(_WORKED_RECORD)}")


REQUIREMENTS = (
    "Keep the same entities and setting as the original prompt.",
    "Do not repeat or trivially rephrase the original prompt.",
    "The counterfactual must stay visually plausible while clearly violating the physical law governing the scene.",
    "Target the physical process identified in the analysis, not an unrelated one.",
)

OUTPUT_FORMAT_SPEC = "Respond in exactly this format:\n" + render_record(CounterfactualRecord(
    "",
    Analysis(
        "<entities present in the scene>",
        "<environmental conditions>",
        "<how the entities interact physically>",
        "<how the scene evolves over time>",
    ),
    "<one counterfactual version of the prompt>",
))

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


def parse_response(
    text: str,
    user_prompt: str = "",
    model_id: str = "",
    created_at: str = "",
) -> CounterfactualRecord:
    """Parse a strict-format response into a record.

    Raises FormatViolation naming the first missing marker or subfield,
    subfields checked in SUBFIELD_LABELS order. Every value is trimmed.
    """
    lines = text.splitlines()
    found, current, started = {}, None, False
    for c, line in enumerate(lines):
        stripped = line.strip()
        if not started:
            started = stripped == ANALYSIS_MARKER
        elif stripped == COUNTERFACTUAL_MARKER:
            break
        else:
            # a line starts with a label exactly when its text through the first colon is one:
            # each label's one colon is its last character
            label = stripped[:stripped.find(":") + 1]
            if label in SUBFIELD_LABELS:
                current = label
                found[label] = stripped[len(label):].strip()
            elif current is not None and stripped:
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


class _Separators(dict):
    """A str.translate table that keeps alphanumeric characters and maps every other one to a space.

    Each code point's entry is worked out on first use and stored.
    """

    def __missing__(self, c: int) -> int:
        self[c] = c if chr(c).isalnum() else 32
        return self[c]


_SEPARATORS = _Separators()


def _words(text: str) -> list:
    """The maximal runs of characters for which str.isalnum() is true, in the lowercased text."""
    return text.lower().translate(_SEPARATORS).split()


def validate_record(rec: CounterfactualRecord) -> list:
    """Run the lexical quality heuristics; return the failure reasons, empty if the record passes.

    Checks, each failure given as "name: reason" in this order:
    entity_overlap (the counterfactual shares at least one content word
    with the user prompt), non_repetition (its words are not the user
    prompt's words). Never raises.
    """
    prompt_words = _words(rec.user_prompt)
    cf_words = _words(rec.counterfactual)
    reasons = []
    if not any(len(w) > 2 and w not in _STOP_WORDS for w in set(prompt_words).intersection(cf_words)):
        reasons.append("entity_overlap: no shared content words")
    if prompt_words == cf_words:
        reasons.append("non_repetition: counterfactual repeats the user prompt")
    return reasons


class MockTransport:
    """Canned responses keyed by user prompt, for offline runs and tests."""

    def __init__(self, responses: dict):
        self.responses = dict(responses)

    @classmethod
    def from_dir(cls, path) -> "MockTransport":
        """Load fixture pairs <name>.prompt.txt / <name>.response.txt (UTF-8) from a directory, in name order."""
        names = set(os.listdir(path))
        # the directory ends in one separator, so directory + name is os.path.join(path, name) without a join per file
        directory = os.path.join(path, "")
        responses = {}
        for name in sorted(n for n in names if n.endswith(".prompt.txt")):
            response_name = name[:-len(".prompt.txt")] + ".response.txt"
            if response_name not in names:
                raise FileNotFoundError(f"fixture {name} has no matching response file")
            prompt = read_text(directory + name, "fixture").strip()
            responses[prompt] = read_text(directory + response_name, "fixture")
        if not responses:
            raise FileNotFoundError(f"no *.prompt.txt fixtures found in {path}")
        return cls(responses)

    def __call__(self, messages: list, cfg: LlmEndpointConfig) -> str:
        prompt = next((m["content"] for m in reversed(messages) if m["role"] == "user"), None)
        response = None if prompt is None else self.responses.get(prompt.strip())
        if response is None:
            raise TransportError(f"no canned response for prompt {prompt!r}", retryable=False)
        return response


class HttpTransport:
    """Live chat-completions client: POST {base_url}/v1/chat/completions."""

    def __call__(self, messages: list, cfg: LlmEndpointConfig) -> str:
        import http.client  # imported here: only live par runs need the HTTP stack, which is slow to import
        import urllib.request

        token = os.environ.get(cfg.api_key_env)
        if not token:
            raise TransportError(f"environment variable {cfg.api_key_env} is not set", retryable=False)
        url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        body = json.dumps({"model": cfg.model, "messages": messages, "temperature": 0.2}).encode()
        headers = {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}
        try:
            try:
                resp = urllib.request.urlopen(urllib.request.Request(url, body, headers), timeout=cfg.timeout)
            except urllib.request.HTTPError as exc:  # a 4xx or 5xx reply, read and closed like any other
                resp = exc
            with resp:
                status, text = resp.status, resp.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:  # refused, timed out, cut short, unsendable
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if status != 200:  # urlopen returns any 2xx without raising
            # a client error other than a timeout or a rate limit fails the same way on every retry
            client_error = 400 <= status < 500 and status not in (408, 429)
            raise TransportError(f"endpoint returned status {status}: {text.decode(errors='replace')[:200]}",
                                 retryable=not client_error)
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"malformed completion payload: content is {type(content).__name__}, not a string")
        return content


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# The failures a generation call can end in; each class names its status.
_FAILURES = (TransportError, FormatViolation, ValidationFailure)


# json.dumps(obj, sort_keys=True) without building a new encoder for every line; _persist builds each row
# afresh from strings and a list of strings, so no row can hold a cycle for check_circular to catch
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _appender(path, stack: ExitStack) -> Callable:
    """A function appending one JSON line to path, if not None, opened on first use.

    The file is unbuffered and each line is one write call, so a line has reached the kernel when the
    append returns, as a buffered write and a flush per line would give.
    """
    fh = None

    def append(obj: dict) -> None:
        nonlocal fh
        if path is None:
            return
        if fh is None:
            fh = stack.enter_context(open(path, "ab", buffering=0))
        line = (_encode(obj) + "\n").encode()
        while line:  # a short write, which a full disk can cause, leaves the rest of the line to write
            line = line[fh.write(line):]

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
            if not exc.retryable or attempt == cfg.max_retries:
                raise
    return parse_response(text, user_prompt=user_prompt, model_id=cfg.model, created_at=clock())


def _persist(rec: CounterfactualRecord, to_corpus, to_quarantine) -> CounterfactualRecord:
    """Validate a record, then append it to the corpus, or to the quarantine and raise ValidationFailure."""
    reasons = validate_record(rec)
    row = {**rec._asdict(), "analysis": rec.analysis._asdict()}
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
