"""R-round, K-teacher debate engine with deterministic mock teachers.

Round 1 is independent: every teacher proposes from its own base table with
no inter-teacher context. In each later round a teacher revises by reading
all previous-round responses. The full utterance grid is privileged context:
it is visible to teachers during force-decoding and never to the student,
which is why no student-facing type in this package can hold a transcript.

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
class TeacherId:
    """Positional identity of a teacher within a debate."""

    index: int
    name: str

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("teacher index must be non-negative")


@dataclass(frozen=True)
class Utterance:
    """One cell of the debate grid: a proposed action plus a confidence."""

    teacher: TeacherId
    round: int
    content: tuple[int, ...]
    confidence: float

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("rounds are 1-based")
        if len(self.content) == 0:
            raise ValueError("utterance content must be non-empty")
        if not 0 <= self.confidence <= 100:
            raise ValueError(f"confidence must lie in [0, 100], got {self.confidence}")


@dataclass(frozen=True)
class DebateTranscript:
    """Complete K x R grid of utterances debated for one state.

    Privileged: consumed only by teacher-side force-decoding, never by the
    student.
    """

    utterances: tuple[tuple[Utterance, ...], ...]  # indexed [round][teacher]
    state_ref: StateKey | None = None

    def __post_init__(self):
        if not self.utterances:
            raise ValueError("transcript has no rounds")
        k = len(self.utterances[0])
        if k == 0:
            raise ValueError("transcript has no teachers")
        for r, row in enumerate(self.utterances, start=1):
            if len(row) != k:
                raise ValueError(f"round {r} has {len(row)} cells, expected {k}")
            for cell in row:
                if cell.round != r:
                    raise ValueError(f"cell round {cell.round} placed in row {r}")

    @property
    def num_teachers(self) -> int:
        return len(self.utterances[0])

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

    `respond` receives the state and all prior rounds' responses (round 1
    gets an empty list, so the round is len(prior_rounds) + 1) and returns
    this round's response. A live-model adapter would read the prior
    utterances; mocks read the prior distributions. Responses must be
    deterministic functions of their inputs so transcript assembly is
    order-independent within a round.
    """

    id: TeacherId

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

    base_table holds one joint action distribution per state. On states in
    the competence set the table peaks on a correct action with mass at
    least peak_mass; elsewhere it is flattened (top mass at most 0.5), e.g.
    by flattened_row, which checks its own temperature. action_shape is
    (n_tools, n_args): a flat table index decodes to the (tool, arg) pair
    an utterance carries. revision_rate is the geometric-pooling rate
    lambda; 0 disables revision entirely. confidence_override, when set,
    replaces the top-probability self-report with a fixed value
    (miscalibrated-confidence experiments).
    """

    name: str
    base_table: dict[StateKey, Distribution]
    action_shape: tuple[int, int]
    competence_set: frozenset = frozenset()
    peak_mass: float = 0.9
    revision_rate: float = 0.5
    confidence_override: float | None = None

    def __post_init__(self):
        if not 0 <= self.revision_rate <= 1:
            raise ValueError(f"revision_rate must lie in [0, 1], got {self.revision_rate}")
        for state in self.competence_set:
            row = self.base_table[state]
            if float(row.probs.max()) < self.peak_mass:
                raise ValueError(
                    f"competent state {state!r} peaks at {row.probs.max():.3f} "
                    f"< peak_mass {self.peak_mass}"
                )
        for state, row in self.base_table.items():
            if state not in self.competence_set and float(row.probs.max()) > 0.5:
                raise ValueError(
                    f"incompetent state {state!r} peaks at {row.probs.max():.3f} > 0.5"
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
    """Table-driven teacher with geometric-pool revision."""

    def __init__(self, index: int, spec: MockTeacherSpec):
        self.id = TeacherId(index, spec.name)
        self.spec = spec

    def base_dist(self, state: StateKey) -> Distribution:
        try:
            return self.spec.base_table[state]
        except KeyError:
            raise ValueError(f"teacher {self.spec.name!r} has no row for state {state!r}")

    def respond(
        self, state: StateKey, prior_rounds: list[list[TeacherResponse]]
    ) -> TeacherResponse:
        dist = self.base_dist(state)
        if prior_rounds:
            prev = [resp.dist for resp in prior_rounds[-1]]
            dist = geometric_pool(dist, prev, self.spec.revision_rate)
        if self.spec.confidence_override is not None:
            confidence = float(self.spec.confidence_override)
        else:
            confidence = round(100.0 * float(dist.probs.max()), 2)
        content = divmod(int(np.argmax(dist.probs)), self.spec.action_shape[1])
        utt = Utterance(self.id, len(prior_rounds) + 1, content, confidence)
        return TeacherResponse(dist=dist, utterance=utt)


@dataclass(frozen=True)
class DebateResult:
    """Transcript plus the final-round force-decode targets and confidences."""

    transcript: DebateTranscript
    post_dists: tuple[Distribution, ...]
    confidences: tuple[float, ...]


def run_debate(teachers: list[Teacher], state: StateKey, rounds: int) -> DebateResult:
    """Run the full debate protocol for one state.

    Within a round the teacher queries are independent (cells are keyed by
    teacher index, not completion order); rounds are a sequential barrier.
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
        transcript=DebateTranscript(utterances=grid, state_ref=state),
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

    One line per cell in round-major order between the start/end markers:
    round 1 cells are "Initial Answer", round 2 "Revised Answer", later
    rounds "Round r Answer"; experts are lettered A, B, C, ... by index.
    """
    lines = [_START]
    for row in t.utterances:
        for cell in row:
            tokens = " ".join(str(tok) for tok in cell.content)
            if not tokens:
                raise ValueError("cannot serialize an empty utterance")
            lines.append(
                f"[Expert {_expert_letter(cell.teacher.index)} {_round_word(cell.round)} "
                f"Answer]: {tokens} | Confidence Score: {cell.confidence}"
            )
    lines.append(_END)
    return "\n".join(lines)


def parse_transcript(text: str, state_ref: StateKey | None = None) -> DebateTranscript:
    """Inverse of serialize_transcript.

    Recovers the grid, contents, and confidences exactly; teacher names are
    canonicalized to "Expert <letter>". state_ref travels out of band.
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
        content = tuple(int(tok) for tok in m.group("tokens").split())
        utt = Utterance(
            TeacherId(idx, f"Expert {m.group('letter')}"),
            r,
            content,
            float(m.group("conf")),
        )
        if (r, idx) in cells:
            raise TranscriptParseError(ln, detail="duplicate cell")
        cells[(r, idx)] = utt
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
    return DebateTranscript(utterances=tuple(grid), state_ref=state_ref)


def transcript_to_jsonl(t: DebateTranscript) -> str:
    """One utterance per line: teacher index/name, round, token ids, confidence."""
    lines = []
    for row in t.utterances:
        for cell in row:
            lines.append(
                json.dumps(
                    {
                        "state": t.state_ref,
                        "teacher": cell.teacher.index,
                        "name": cell.teacher.name,
                        "round": cell.round,
                        "content": list(cell.content),
                        "confidence": cell.confidence,
                    }
                )
            )
    return "\n".join(lines)
