"""R-round, K-teacher debate engine with deterministic mock teachers.

Round 1 is independent: every teacher proposes from its own base table with
no inter-teacher context. In each later round a teacher revises by reading
all previous-round responses. The utterance grid is privileged context:
teachers and transcript output read it, the student never does, which is
why no student-facing type in this package can hold a transcript.

Mock teachers revise by confidence-free geometric pooling at rate lambda:
post proportional to base^(1-lambda) * (prod_j prev_j)^(lambda/K). A mock's
self-reported confidence is 100 times the top probability of its current
distribution, rounded to two decimals; an optional override models the
miscalibrated-confidence failure mode behind an experiment flag.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .simplex import Distribution

StateKey = int | str


@dataclass(frozen=True)
class Utterance:
    """One cell of the debate grid: a proposed action plus a confidence."""

    content: tuple[int, ...]
    confidence: float

    def __post_init__(self):
        if len(self.content) == 0:
            raise ValueError("utterance content must be non-empty")
        if not 0 <= self.confidence <= 100:
            raise ValueError(f"confidence must lie in [0, 100], got {self.confidence}")


@dataclass(frozen=True)
class DebateTranscript:
    """Complete R x K grid of utterances debated for one state.

    A cell's position is its only identity: row r - 1 is round r, column k
    is teacher k, named names[k]. Privileged: serialisation and debate-demo
    read it, never the student; force-decoding reads post_dists instead.
    """

    utterances: tuple[tuple[Utterance, ...], ...]  # indexed [round - 1][teacher]
    names: tuple[str, ...]
    state_ref: StateKey | None = None

    def __post_init__(self):
        if not self.utterances:
            raise ValueError("transcript has no rounds")
        k = len(self.names)
        if k == 0:
            raise ValueError("transcript has no teachers")
        for r, row in enumerate(self.utterances, start=1):
            if len(row) != k:
                raise ValueError(f"round {r} has {len(row)} cells, expected {k}")

    @property
    def num_teachers(self) -> int:
        return len(self.names)

    @property
    def num_rounds(self) -> int:
        return len(self.utterances)


@dataclass(frozen=True)
class TeacherResponse:
    """A teacher's full per-round output: distribution plus utterance."""

    dist: Distribution
    utterance: Utterance


class Teacher:
    """Interface a debate participant must implement.

    `name` labels the teacher's transcript column. `respond` receives the
    state and all prior rounds' responses (round 1 gets an empty list, so
    the round is len(prior_rounds) + 1) and returns this round's response.
    A live-model adapter would read the prior utterances; mocks read the
    prior distributions. Responses must be deterministic functions of their
    inputs so transcript assembly is order-independent within a round.
    """

    name: str

    def respond(
        self, state: StateKey, prior_rounds: list[list["TeacherResponse"]]
    ) -> TeacherResponse:
        raise NotImplementedError


def peaked_row(vocab: int, peak_index: int, peak_mass: float) -> Distribution:
    """Distribution with peak_mass on one token, remainder uniform."""
    if not 0.5 < peak_mass < 1:
        raise ValueError(f"peak_mass must lie in (0.5, 1), got {peak_mass}")
    probs = np.full(vocab, (1 - peak_mass) / (vocab - 1))
    probs[peak_index] = peak_mass
    return Distribution(probs)


def flattened_row(
    vocab: int, peak_index: int, peak_mass: float, temperature: float
) -> Distribution:
    """Temperature-flattened peaked row: normalize(p ** (1/temperature))."""
    if temperature < 1:
        raise ValueError(f"temperature must be >= 1, got {temperature}")
    base = peaked_row(vocab, peak_index, peak_mass)
    return Distribution.from_weights(base.probs ** (1.0 / temperature))


def temperature_for_peak(vocab: int, peak_mass: float, target_peak: float) -> float:
    """Temperature that flattens a peaked row down to the target top mass."""
    off = (1 - peak_mass) / (vocab - 1)
    denom = np.log(target_peak / (1 - target_peak)) + np.log(vocab - 1)
    if denom <= 0:
        raise ValueError("target peak is at or below uniform; no finite temperature")
    return float(np.log(peak_mass / off) / denom)


@dataclass(frozen=True)
class MockTeacherSpec:
    """Deterministic stand-in for a live teacher model.

    base_table holds one joint action distribution per state; where the
    teacher is competent it peaks on a correct action, elsewhere it is
    flattened, e.g. by flattened_row (the fixture tests check each table).
    action_shape is (n_tools, n_args): a flat table index decodes to the
    (tool, arg) pair an utterance carries, so every row holds n_tools *
    n_args entries. revision_rate is the geometric-pooling rate lambda; 0
    disables revision entirely.
    confidence_override, when set, replaces the top-probability self-report
    with a fixed value (miscalibrated-confidence experiments).
    """

    name: str
    base_table: dict[StateKey, Distribution]
    action_shape: tuple[int, int]
    revision_rate: float = 0.5
    confidence_override: float | None = None

    def __post_init__(self):
        if not 0 <= self.revision_rate <= 1:
            raise ValueError(f"revision_rate must lie in [0, 1], got {self.revision_rate}")
        n_tools, n_args = self.action_shape
        for state, row in self.base_table.items():
            if row.vocab_size != n_tools * n_args:
                raise ValueError(
                    f"teacher {self.name!r}: the row for state {state!r} has {row.vocab_size} "
                    f"entries, expected n_tools * n_args = {n_tools * n_args}"
                )


def geometric_pool(
    base: Distribution, previous: list[Distribution], rate: float
) -> Distribution:
    """base^(1-rate) * (prod_j prev_j)^(rate/K), renormalized.

    rate=0 returns base unchanged (bit-identical), so any number of rounds
    collapses to the independent round.
    """
    if rate == 0 or not previous:
        return base
    k = len(previous)
    log_pool = (1 - rate) * np.log(base.probs)
    for prev in previous:
        log_pool = log_pool + (rate / k) * np.log(prev.probs)
    return Distribution.from_weights(np.exp(log_pool - log_pool.max()))


class MockTeacher(Teacher):
    """Table-driven teacher with geometric-pool revision.

    A response depends only on the state and the values of the last round's
    tables (the spec is frozen and its base table is never mutated), so
    `respond` memoises it per instance under the key (state, bytes of each
    last-round table) and returns the identical, immutable TeacherResponse
    on a repeat. Keyed by value, not by object identity, a hit is exact for
    any prior round that equals an earlier one entry for entry. Every
    `respond` call still happens and builds its key; a hit skips only the
    pooling, the Distribution validation and the Utterance build.
    """

    def __init__(self, spec: MockTeacherSpec):
        self.name = spec.name
        self.spec = spec
        self._memo: dict[tuple, TeacherResponse] = {}

    def base_dist(self, state: StateKey) -> Distribution:
        try:
            return self.spec.base_table[state]
        except KeyError:
            raise ValueError(f"teacher {self.name!r} has no row for state {state!r}")

    def respond(
        self, state: StateKey, prior_rounds: list[list[TeacherResponse]]
    ) -> TeacherResponse:
        prev = [resp.dist for resp in prior_rounds[-1]] if prior_rounds else []
        key = (state, tuple(p.probs.tobytes() for p in prev))
        response = self._memo.get(key)
        if response is not None:
            return response
        dist = self.base_dist(state)
        if prev:
            dist = geometric_pool(dist, prev, self.spec.revision_rate)
        top = int(dist.probs.argmax())
        if self.spec.confidence_override is not None:
            confidence = float(self.spec.confidence_override)
        else:
            confidence = round(100.0 * float(dist.probs[top]), 2)
        content = divmod(top, self.spec.action_shape[1])
        response = TeacherResponse(dist=dist, utterance=Utterance(content, confidence))
        self._memo[key] = response
        return response


@dataclass(frozen=True)
class DebateResult:
    """Transcript plus the final-round force-decode targets and confidences."""

    transcript: DebateTranscript
    post_dists: tuple[Distribution, ...]
    confidences: tuple[float, ...]


def run_debate(teachers: list[Teacher], state: StateKey, rounds: int) -> DebateResult:
    """Run the full debate protocol for one state.

    Within a round the teacher queries are independent (a cell's column is
    its teacher's place in `teachers`, not completion order); rounds are a
    sequential barrier.
    The returned distributions and confidences are final-round values, so
    weights computed from them reflect post-deliberation certainty.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not teachers:
        raise ValueError("need at least one teacher")
    history: list[list[TeacherResponse]] = []
    for _ in range(rounds):
        history.append([t.respond(state, history) for t in teachers])
    grid = tuple(tuple(resp.utterance for resp in row) for row in history)
    final = history[-1]
    return DebateResult(
        transcript=DebateTranscript(grid, tuple(t.name for t in teachers), state),
        post_dists=tuple(resp.dist for resp in final),
        confidences=tuple(resp.utterance.confidence for resp in final),
    )


# --- transcript text format -------------------------------------------------

_START = "[Debate Start]"
_END = "[Debate End]"


#: Experts are lettered A to Z, so a transcript holds at most 26 teachers.
MAX_LETTERED_EXPERTS = 26


def _expert_letter(index: int) -> str:
    if index >= MAX_LETTERED_EXPERTS:
        raise ValueError(
            f"expert letters are defined for at most {MAX_LETTERED_EXPERTS} teachers"
        )
    return chr(ord("A") + index)


def _round_word(r: int) -> str:
    if r == 1:
        return "Initial"
    if r == 2:
        return "Revised"
    return f"Round {r}"


_LINE_RE = re.compile(
    r"^\[Expert (?P<letter>[A-Z]) (?P<round>Initial|Revised|Round \d+) Answer\]: "
    r"(?P<tokens>\d+(?: \d+)*) \| Confidence Score: (?P<conf>\d+(?:\.\d+)?(?:e-\d+)?)$"
)


class TranscriptParseError(ValueError):
    """Malformed transcript block; names the marker that failed."""

    def __init__(self, marker: str, detail: str = ""):
        self.marker = marker
        super().__init__(f"missing or malformed marker {marker!r}" + (f": {detail}" if detail else ""))


def serialize_transcript(t: DebateTranscript) -> str:
    """Render the grid as a marker-delimited text block.

    One line per cell in round-major order between the start/end markers.
    A cell's row names its round: round 1 cells are "Initial Answer", round
    2 "Revised Answer", later rounds "Round r Answer"; its column letters
    its expert A, B, C, ... Teacher names do not enter the text.
    """
    lines = [_START]
    for r, row in enumerate(t.utterances, start=1):
        for k, cell in enumerate(row):
            tokens = " ".join(str(tok) for tok in cell.content)
            lines.append(
                f"[Expert {_expert_letter(k)} {_round_word(r)} "
                f"Answer]: {tokens} | Confidence Score: {cell.confidence}"
            )
    lines.append(_END)
    return "\n".join(lines)


def parse_transcript(text: str, state_ref: StateKey | None = None) -> DebateTranscript:
    """Inverse of serialize_transcript.

    Recovers the grid, contents, and confidences exactly; the names are
    "Expert <letter>" by column. state_ref travels out of band.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != _START:
        raise TranscriptParseError(_START)
    if lines[-1] != _END:
        raise TranscriptParseError(_END)
    cells: dict[tuple[int, int], Utterance] = {}
    for ln in lines[1:-1]:
        m = _LINE_RE.match(ln)
        if m is None:
            raise TranscriptParseError("[Expert ...]", detail=ln)
        idx = ord(m.group("letter")) - ord("A")
        word = m.group("round")
        r = 1 if word == "Initial" else 2 if word == "Revised" else int(word.split()[1])
        if r < 1:
            raise TranscriptParseError(ln, detail="rounds are 1-based")
        if (r, idx) in cells:
            raise TranscriptParseError(ln, detail="duplicate cell")
        confidence = float(m.group("conf"))
        if not 0 <= confidence <= 100:
            raise TranscriptParseError(ln, detail=f"confidence must lie in [0, 100], got {confidence}")
        content = tuple(int(tok) for tok in m.group("tokens").split())
        cells[(r, idx)] = Utterance(content, confidence)
    if not cells:
        raise TranscriptParseError("[Expert A Initial Answer]", detail="no cells")
    n_rounds = max(r for r, _ in cells)
    n_teachers = max(i for _, i in cells) + 1
    grid = []
    for r in range(1, n_rounds + 1):
        row = []
        for i in range(n_teachers):
            if (r, i) not in cells:
                raise TranscriptParseError(
                    f"[Expert {_expert_letter(i)} {_round_word(r)} Answer]"
                )
            row.append(cells[(r, i)])
        grid.append(tuple(row))
    names = tuple(f"Expert {_expert_letter(i)}" for i in range(n_teachers))
    return DebateTranscript(tuple(grid), names, state_ref)


def transcript_to_jsonl(t: DebateTranscript) -> str:
    """One utterance per line: teacher column/name, round, token ids, confidence."""
    lines = []
    for r, row in enumerate(t.utterances, start=1):
        for k, cell in enumerate(row):
            lines.append(
                json.dumps(
                    {
                        "state": t.state_ref,
                        "teacher": k,
                        "name": t.names[k],
                        "round": r,
                        "content": list(cell.content),
                        "confidence": cell.confidence,
                    }
                )
            )
    return "\n".join(lines)
