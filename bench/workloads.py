"""The four benchmark workloads: their inputs, CLI arguments and output checks.

Each workload is made from the workload seed alone. The seed becomes the
CLI's ``--seed-base`` and seeds the input generators; the program sees
only the generated files. ``prepare`` returns a Workload whose ``check``
validates one repetition's outputs and counts the items that came out
wrong.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_WELL = Path("demos/configs/two_well.json")
STRATEGIES = ("CFG", "NP", "SDN", "TDD_ONLY", "SDG")
WIDE_DIM = 16
WIDE_COMPONENTS = 8
PAR_PROMPTS = 3000
PAR_MALFORMED = 150
PAR_RESTATED = 150

ENTITIES = (
    "butter block", "ice cube", "wax candle", "chocolate bar", "snowman", "sand castle",
    "paper sheet", "soap bubble", "copper kettle", "glass marble", "rubber balloon", "maple leaf",
)
PROCESSES = (
    ("melts under a heat lamp", "stays frozen solid"),
    ("rolls down a gentle slope", "climbs up the slope"),
    ("cools slowly in the evening air", "grows hotter"),
    ("casts a lengthening shadow at sunset", "casts no shadow at all"),
    ("sinks into a tank of water", "floats upward out of the water"),
    ("dries in the afternoon sun", "becomes wetter"),
)
SURFACES = ("kitchen counter", "wooden table", "stone floor", "garden path", "metal tray", "glass shelf")


@dataclass
class Workload:
    name: str
    items: int
    expected_exit: int
    cli_args: list
    artifacts: tuple
    planted: dict = field(default_factory=dict)
    seeds: tuple = ()

    def argv(self, out_dir):
        return self.cli_args + ["--out", str(out_dir), "--jobs", "1"]

    @property
    def config_path(self):
        return self.cli_args[self.cli_args.index("--config") + 1]

    def digest(self, out_dir, name):
        """sha256 of an artifact, with par's per-record timestamps blanked."""
        data = (Path(out_dir) / name).read_bytes()
        if self.name == "par-mock":
            records = [json.loads(line) for line in data.splitlines()]
            for rec in records:
                (rec.get("record") or rec)["created_at"] = ""
            data = "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()
        return hashlib.sha256(data).hexdigest()

    def ok_items(self, stdout, failed):
        """Items that completed with status ok (par: prompts whose record was accepted)."""
        if self.name != "par-mock" or failed == self.items:
            return self.items - failed
        return sum(line.startswith("ok ") for line in stdout.splitlines())

    def check(self, out_dir, stdout):
        """Validate one repetition; return (items that failed, list of problems)."""
        out_dir = Path(out_dir)
        if self.name == "par-mock":
            return self._check_par(out_dir, stdout)
        problems = CHECKS[self.name](self, out_dir)
        return (self.items if problems else 0), problems

    def _check_par(self, out_dir, stdout):
        statuses = {}
        for line in stdout.splitlines():
            status, _, prompt = line.partition(" ")
            statuses[prompt.strip()] = status
        wrong = [p for p, want in self.planted.items() if statuses.get(p) != want]
        problems = []
        corpus = _jsonl(out_dir / "corpus.jsonl")
        quarantine = _jsonl(out_dir / "quarantine.jsonl")
        if sorted(r["user_prompt"] for r in corpus) != sorted(p for p, s in self.planted.items() if s == "ok"):
            problems.append("corpus.jsonl does not hold exactly the ok prompts")
        planted_quarantine = status_counts(self.planted)["validation_failure"]
        if len(quarantine) != planted_quarantine:
            problems.append(f"quarantine.jsonl has {len(quarantine)} records, planted {planted_quarantine}")
        if problems:
            return self.items, problems
        return len(wrong), [f"{len(wrong)} prompts got a status other than the planted one"] if wrong else []


def prepare(name, seed, run_dir, root):
    """Generate the workload's inputs under run_dir and return the Workload."""
    run_dir = Path(run_dir)
    base = json.loads((root / TWO_WELL).read_text())
    if name == "compare-2d":
        return Workload(name, len(STRATEGIES) * _seed_count(base), 0,
                        ["compare-guidance", "--config", str(root / TWO_WELL), "--seed-base", str(seed)],
                        ("comparison.csv",), seeds=_seeds(base, seed))
    if name == "diagnose-np":
        base["guidance"]["strategy"] = "NP"
        path = run_dir / "two_well_np.json"
        path.write_text(json.dumps(base, indent=2))
        return Workload(name, _seed_count(base), 0,
                        ["diagnose-lag", "--config", str(path), "--seed-base", str(seed)],
                        ("bias_gap.csv", "delta_norms.csv", "eigen.csv", "report.json", "summary.json",
                         "suppression_proj.csv"), seeds=_seeds(base, seed))
    if name == "sample-wide":
        config = wide_world_config(seed)
        path = run_dir / "wide.json"
        path.write_text(json.dumps(config, indent=2))
        return Workload(name, _seed_count(config), 0,
                        ["sample", "--config", str(path), "--seed-base", str(seed)],
                        ("samples.csv", "trajectories.jsonl"), seeds=_seeds(config, seed))
    if name == "par-mock":
        prompts_path, fixtures, planted = par_fixture(seed, run_dir)
        return Workload(name, len(planted), 1,
                        ["par-generate", "--config", str(root / TWO_WELL), str(prompts_path), "--mock", str(fixtures)],
                        ("corpus.jsonl", "quarantine.jsonl"), planted=planted)
    raise ValueError(f"unknown workload {name!r}")

def _seed_count(config):
    return int(config["run"]["seeds"]["count"])


def _seeds(config, seed_base):
    return tuple(range(seed_base, seed_base + _seed_count(config)))


def wide_world_config(seed):
    """A 16-D, 8-component world: plausible = first half, counterfactual = second half."""
    rng = np.random.default_rng([seed, WIDE_DIM, WIDE_COMPONENTS])
    means = np.round(rng.normal(scale=4.0, size=(WIDE_COMPONENTS, WIDE_DIM)), 6)
    covs = np.round(rng.uniform(0.5, 2.0, size=(WIDE_COMPONENTS, WIDE_DIM)), 6)
    weights = np.full(WIDE_COMPONENTS, 1.0 / WIDE_COMPONENTS)
    half = WIDE_COMPONENTS // 2
    return {
        "world": {
            "components": [{"mean": m.tolist(), "cov_diag": c.tolist()} for m, c in zip(means, covs)],
            "weights": weights.tolist(),
        },
        "conditions": {
            "scene": {"components": list(range(WIDE_COMPONENTS))},
            "plausible": {"components": list(range(half))},
            "counterfactual": {"components": list(range(half, WIDE_COMPONENTS))},
        },
        "positive": "scene",
        "negative": "counterfactual",
        "mass_labels": {"plausible": list(range(half)), "counterfactual": list(range(half, WIDE_COMPONENTS))},
        "schedule": {"num_steps": 50, "beta_start": 0.03, "beta_end": 0.10},
        "guidance": {"strategy": "SDG", "w": 6.0, "lambda": 30.0, "eps_stab": 1e-8},
        "run": {"seeds": {"count": 64, "base": 0}, "deterministic": True},
        "output": {"directory": "runs/wide", "formats": ["csv", "jsonl"]},
    }


def par_fixture(seed, run_dir):
    """Write a prompt file and mock fixture directory with planted outcomes.

    PAR_MALFORMED responses break the strict format, PAR_RESTATED restate
    the prompt (quarantined by validation), and one prompt has no canned
    response, so the mock transport fails and the retry path runs. All
    other prompts get a valid response. Returns (prompts file, fixture
    directory, {prompt: planted status}).
    """
    rng = np.random.default_rng([seed, PAR_PROMPTS])
    order = rng.permutation(PAR_PROMPTS)
    kinds = ["ok"] * PAR_PROMPTS
    for j in order[:PAR_MALFORMED]:
        kinds[j] = "format_violation"
    for j in order[PAR_MALFORMED:PAR_MALFORMED + PAR_RESTATED]:
        kinds[j] = "validation_failure"
    kinds[order[PAR_MALFORMED + PAR_RESTATED]] = "transport_error"

    fixtures = Path(run_dir) / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    planted = {}
    for i, kind in enumerate(kinds):
        entity = ENTITIES[rng.integers(len(ENTITIES))]
        process, violation = PROCESSES[rng.integers(len(PROCESSES))]
        surface = SURFACES[rng.integers(len(SURFACES))]
        prompt = f"A timelapse shows a {entity} that {process} on a {surface}, take {i}."
        planted[prompt] = kind
        if kind == "transport_error":
            continue
        counterfactual = prompt if kind == "validation_failure" else (
            f"The {entity} {violation} on the {surface} instead, despite the conditions.")
        lines = [
            "[ANALYSIS]",
            f"Entities: a {entity}, a {surface}",
            f"Environment: a quiet room around the {surface}",
            f"Interactions: the {entity} {process}",
            f"Temporal evolution: the change is gradual over take {i}",
            "[COUNTERFACTUAL]",
            counterfactual,
        ]
        if kind == "format_violation":
            del lines[3 if i % 2 else 5]
        (fixtures / f"p{i:05d}.prompt.txt").write_text(prompt + "\n")
        (fixtures / f"p{i:05d}.response.txt").write_text("\n".join(lines) + "\n")
    prompts_path = Path(run_dir) / "prompts.txt"
    prompts_path.write_text("".join(p + "\n" for p in planted))
    return prompts_path, fixtures, planted


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def status_counts(planted):
    counts = {s: 0 for s in ("ok", "format_violation", "validation_failure", "transport_error")}
    for status in planted.values():
        counts[status] += 1
    return counts


def _jsonl(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _csv(path):
    return list(csv.reader(io.StringIO(path.read_text())))


def _series_ok(path, steps):
    rows = _csv(path)
    return len(rows) == steps + 1 and [int(r[0]) for r in rows[1:]] == list(range(steps, 0, -1))


def _check_compare(w, out):
    rows = _csv(out / "comparison.csv")
    if [r[0] for r in rows[1:]] != list(STRATEGIES):
        return [f"comparison.csv strategies {[r[0] for r in rows[1:]]}"]
    bad = [r for r in rows[1:] if not 0.0 <= float(r[1]) <= 1.0 or int(r[3]) != len(w.seeds)]
    return [f"comparison.csv rows out of range: {bad}"] if bad else []


def _check_diagnose(w, out):
    problems = [f"{name} is not a 50-step series"
                for name in ("delta_norms.csv", "suppression_proj.csv", "bias_gap.csv", "eigen.csv")
                if not _series_ok(out / name, 50)]
    gap = _csv(out / "bias_gap.csv")
    if len(gap) > 1 and float(gap[1][1]) != 0.0:
        problems.append("bias gap at t=T is not exactly 0")
    for row in _csv(out / "eigen.csv")[1:]:
        if abs(math.hypot(*map(float, row[2:])) - 1.0) > 1e-9:
            problems.append(f"eigenvector at t={row[0]} is not unit length")
            break
    return problems


def _check_sample(w, out):
    rows = _csv(out / "samples.csv")
    problems = []
    if [int(r[0]) for r in rows[1:]] != list(w.seeds) or any(len(r) != WIDE_DIM + 2 for r in rows):
        problems.append("samples.csv does not hold one 16-D row per seed")
    with open(out / "trajectories.jsonl") as fh:
        lines = sum(1 for _ in fh)
    if lines != len(w.seeds) * 2 * 50:
        problems.append(f"trajectories.jsonl has {lines} lines, expected {len(w.seeds) * 100}")
    return problems


CHECKS = {"compare-2d": _check_compare, "diagnose-np": _check_diagnose, "sample-wide": _check_sample}


def non_finite(path):
    """Count numbers in a CSV or JSON(L) artifact that are NaN or infinite."""
    path = Path(path)
    if path.suffix == ".csv":
        bad = 0
        for row in _csv(path)[1:]:
            for cell in row:
                try:
                    bad += not math.isfinite(float(cell))
                except ValueError:
                    pass
        return bad
    text = path.read_text()
    docs = [json.loads(line) for line in text.splitlines() if line.strip()] if path.suffix == ".jsonl" else [json.loads(text)]
    return sum(_non_finite_json(d) for d in docs)


def _non_finite_json(obj):
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return sum(_non_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_non_finite_json(v) for v in obj)
    return 0
