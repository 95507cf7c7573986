import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import probability_vectors
from debatekd.debate import (
    DebateTranscript,
    MockTeacher,
    MockTeacherSpec,
    TeacherResponse,
    TranscriptParseError,
    Utterance,
    flattened_row,
    geometric_pool,
    parse_transcript,
    peaked_row,
    run_debate,
    serialize_transcript,
    temperature_for_peak,
    transcript_to_jsonl,
)
from debatekd.fixtures import (
    FIXTURES,
    build_fixture,
    complementary_fixture,
    two_strategy_fixture,
)
from debatekd.simplex import Distribution


def brute_force_pool(base, prevs, rate):
    """Independent oracle: direct evaluation of the geometric pool."""
    k = len(prevs)
    pooled = base ** (1 - rate)
    for prev in prevs:
        pooled = pooled * prev ** (rate / k)
    return pooled / pooled.sum()


# Strategies of the adversarial transcript property, built once: building
# them inside the test body made data generation trip hypothesis's
# too_slow health check on a loaded host.
_NUMBER = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=10**15, max_value=10**60),
).map(str)
_CONFIDENCE = st.one_of(
    _NUMBER,
    st.builds("{}.{}".format, _NUMBER, st.text("0123456789", min_size=1, max_size=8)),
    st.sampled_from(["100.0", "100.01", "0.00001", "0.0000001", "1" + "0" * 400]),
)


def _cell(letter, round_word):
    return st.builds(
        "[Expert {} {} Answer]: {} | Confidence Score: {}".format,
        letter,
        round_word,
        st.lists(_NUMBER, min_size=1, max_size=3).map(" ".join),
        _CONFIDENCE,
    )


def _grid_word(r):
    named = {1: ["Initial", "Round 1", "Round 01"], 2: ["Revised", "Round 2"]}
    return st.sampled_from(named.get(r, [f"Round {r}"]))


_GRID_SIZE = st.integers(min_value=1, max_value=3)
_GRID_CELLS = {
    (k, r): _cell(st.just(chr(65 + k)), _grid_word(r)) for k in range(3) for r in range(1, 4)
}
_EDITS = st.integers(min_value=0, max_value=3)
_NOISE = st.one_of(
    _cell(st.sampled_from("ABDZ"), st.one_of(_grid_word(1), _NUMBER.map("Round {}".format))),
    st.text(max_size=30),
)


class TestRows:
    def test_peaked_row(self):
        row = peaked_row(4, 2, 0.9)
        assert row.probs[2] == 0.9
        np.testing.assert_allclose(row.probs.sum(), 1.0)

    def test_temperature_hits_target_peak(self):
        t = temperature_for_peak(4, 0.9, 0.3)
        row = flattened_row(4, 1, 0.9, t)
        assert row.probs[1] == pytest.approx(0.3, abs=1e-12)
        assert row.probs.max() <= 0.5

    def test_flattened_requires_temperature_at_least_one(self):
        with pytest.raises(ValueError):
            flattened_row(4, 0, 0.9, 0.5)


class TestMockTeacherSemantics:
    def make_teacher(self, rate=0.5):
        table = {0: peaked_row(4, 0, 0.9)}
        spec = MockTeacherSpec(
            name="t",
            base_table=table,
            revision_rate=rate,
            action_shape=(2, 2),
        )
        return MockTeacher(spec)

    def test_round_one_is_base_table(self):
        teacher = self.make_teacher()
        resp = teacher.respond(0, [])
        np.testing.assert_array_equal(resp.dist.probs, teacher.base_dist(0).probs)
        assert resp.utterance.content == (0, 0)
        assert resp.utterance.confidence == 90.0

    def test_zero_revision_rate_is_bit_identical_to_base(self):
        teacher = self.make_teacher(rate=0.0)
        r1 = teacher.respond(0, [])
        r2 = teacher.respond(0, [[r1, r1]])
        assert r2.dist is teacher.base_dist(0)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="state"):
            self.make_teacher().respond(99, [])

    def test_row_outside_the_action_shape_rejected(self):
        # a 9-entry row under a 2 x 2 action shape would decode its argmax
        # 8 to the action (4, 0), a tool the shape does not have
        with pytest.raises(ValueError, match=r"state 0 has 9 entries, expected n_tools \* n_args = 4"):
            MockTeacherSpec("x", {0: peaked_row(9, 8, 0.9)}, (2, 2))

    def test_revision_matches_brute_force_pool(self):
        fixture = complementary_fixture()
        a, b = fixture.teachers
        state = 7  # a incompetent here, b competent
        ra, rb = a.respond(state, []), b.respond(state, [])
        r2 = a.respond(state, [[ra, rb]])
        expected = brute_force_pool(
            a.base_dist(state).probs, [ra.dist.probs, rb.dist.probs], 0.5
        )
        np.testing.assert_allclose(r2.dist.probs, expected, rtol=1e-12)

    def test_incompetent_teacher_flips_after_one_revision(self):
        # competent peer peaked 0.9 on the correct action, incompetent
        # teacher flat with 0.3 on a wrong one: the pooled argmax flips
        fixture = complementary_fixture()
        a, b = fixture.teachers
        state = 7
        correct = fixture.world.flat_action(fixture.world.correct_action[state])
        assert int(np.argmax(a.base_dist(state).probs)) != correct
        ra, rb = a.respond(state, []), b.respond(state, [])
        r2 = a.respond(state, [[ra, rb]])
        assert int(np.argmax(r2.dist.probs)) == correct

    def test_confidence_override_flag(self):
        fixture = two_strategy_fixture()
        for teacher, expected in zip(fixture.teachers, (55.0, 89.33)):
            resp = teacher.respond(0, [])
            assert resp.utterance.confidence == expected


@st.composite
def memo_calls(draw):
    """A teacher spec over two states and a run of respond calls whose prior
    rounds come from a small pool of random tables, so that equal priors
    (as fresh objects) and different ones both recur."""
    shape = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    vocab = shape[0] * shape[1]
    rows = st.builds(Distribution, probability_vectors(min_size=vocab, max_size=vocab))
    spec = MockTeacherSpec(
        "t",
        {0: draw(rows), "s": draw(rows)},
        shape,
        revision_rate=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)),
        confidence_override=draw(st.none() | st.floats(0, 100)),
    )
    pool = draw(st.lists(rows, min_size=1, max_size=4))
    k = draw(st.integers(1, 3))
    calls = draw(st.lists(
        st.tuples(
            st.sampled_from([0, "s"]),
            st.none() | st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k),
        ),
        min_size=1, max_size=12,
    ))
    return spec, pool, calls


class TestRespondMemo:
    @settings(max_examples=100, deadline=None)
    @given(memo_calls())
    def test_memoised_respond_is_a_fresh_teachers_response(self, case):
        spec, pool, calls = case
        teacher = MockTeacher(spec)
        seen = {}
        for state, picks in calls:
            # each call gets new objects, equal in value to the pool's tables
            prior = [] if picks is None else [[
                TeacherResponse(Distribution(pool[i].probs.copy()), Utterance((0,), 50.0))
                for i in picks
            ]]
            got = teacher.respond(state, prior)
            want = MockTeacher(spec).respond(state, prior)
            assert got.dist.probs.tobytes() == want.dist.probs.tobytes()
            assert got.utterance == want.utterance
            key = (state, () if picks is None else tuple(pool[i].probs.tobytes() for i in picks))
            if key in seen:
                assert got is seen[key]
            else:
                assert all(got is not other for other in seen.values())
                seen[key] = got

    def test_prior_rounds_before_the_last_do_not_enter_the_key(self):
        teacher = complementary_fixture().teachers[0]
        r1 = [t.respond(7, []) for t in complementary_fixture().teachers]
        r2 = teacher.respond(7, [r1])
        assert teacher.respond(7, [[r1[1], r1[0]], r1]) is r2
        assert teacher.respond(7, [r1[::-1]]) is not r2


# Per fixture and teacher count (None: the builder's default): each teacher's
# competent states and the least mass its table puts on an accepted action
# there. Every other state's top mass is at most 0.5.
_COMPETENCE = {
    ("complementary", None): {"expert-a": (range(5), 0.9), "expert-b": (range(5, 10), 0.9)},
    ("privileged-gap", 1): {"oracle-0": (range(10), 1 - 1e-6)},
    ("privileged-gap", 3): {f"oracle-{k}": (range(10), 1 - 1e-6) for k in range(3)},
    ("two-strategy", None): {"expert-x": (range(10), 0.8), "expert-y": (range(10), 0.55)},
}


def _build(fixture, num_teachers):
    kwargs = {} if num_teachers is None else {"num_teachers": num_teachers}
    return build_fixture(fixture, **kwargs)


class TestFixtureTables:
    @pytest.mark.parametrize(
        "fixture, num_teachers, name",
        [(f, n, name) for (f, n), cases in _COMPETENCE.items() for name in cases],
    )
    def test_base_table_peaks_where_competent(self, fixture, num_teachers, name):
        built = _build(fixture, num_teachers)
        (teacher,) = [t for t in built.teachers if t.name == name]
        competent, peak = _COMPETENCE[(fixture, num_teachers)][name]
        world = built.world
        for s in range(world.n_states):
            probs = teacher.base_dist(s).probs
            top = int(np.argmax(probs))
            if s in competent:
                assert world.unflatten(top) in world.accepted(s), s
                assert probs[top] >= peak, s
            else:
                assert probs[top] <= 0.5, s

    def test_every_fixture_teacher_has_a_case(self):
        assert {f for f, _ in _COMPETENCE} == set(FIXTURES)
        for (fixture, num_teachers), cases in _COMPETENCE.items():
            assert [t.name for t in _build(fixture, num_teachers).teachers] == list(cases)


class TestRunDebate:
    def test_grid_complete(self):
        fixture = complementary_fixture()
        result = run_debate(list(fixture.teachers), 3, rounds=2)
        t = result.transcript
        assert t.num_rounds == 2 and t.num_teachers == 2
        assert len(result.post_dists) == 2 and len(result.confidences) == 2

    def test_single_teacher_single_column(self):
        fixture = complementary_fixture()
        result = run_debate([fixture.teachers[0]], 2, rounds=2)
        assert result.transcript.num_teachers == 1
        # a lone teacher pooling with itself at rate 0.5 keeps its argmax
        np.testing.assert_allclose(
            result.post_dists[0].probs,
            brute_force_pool(
                fixture.teachers[0].base_dist(2).probs,
                [fixture.teachers[0].base_dist(2).probs],
                0.5,
            ),
        )

    def test_rounds_prefix_deterministic(self):
        fixture = complementary_fixture()
        short = run_debate(list(fixture.teachers), 4, rounds=2)
        long = run_debate(list(fixture.teachers), 4, rounds=3)
        assert long.transcript.num_rounds == 3
        for r in range(2):
            for k in range(2):
                assert (
                    long.transcript.utterances[r][k]
                    == short.transcript.utterances[r][k]
                )

    def test_round_one_permutation_invariance(self):
        fixture = complementary_fixture()
        a, b = fixture.teachers
        fwd = run_debate([a, b], 1, rounds=1)
        rev = run_debate([b, a], 1, rounds=1)
        np.testing.assert_array_equal(
            fwd.post_dists[0].probs, rev.post_dists[1].probs
        )
        np.testing.assert_array_equal(
            fwd.post_dists[1].probs, rev.post_dists[0].probs
        )

    def test_zero_rate_any_rounds_equals_round_one(self):
        fixture = complementary_fixture(revision_rate=0.0)
        one = run_debate(list(fixture.teachers), 5, rounds=1)
        three = run_debate(list(fixture.teachers), 5, rounds=3)
        for k in range(2):
            np.testing.assert_array_equal(
                one.post_dists[k].probs, three.post_dists[k].probs
            )
        assert one.confidences == three.confidences

    def test_post_debate_confidences_rise_on_complementary_fixture(self):
        fixture = complementary_fixture()
        for state in range(fixture.world.n_states):
            result = run_debate(list(fixture.teachers), state, rounds=2)
            round1 = [u.confidence for u in result.transcript.utterances[0]]
            round2 = [u.confidence for u in result.transcript.utterances[1]]
            # the incompetent teacher's certainty rises after adopting the
            # competent peer's answer
            incompetent = 0 if state >= fixture.world.n_states // 2 else 1
            assert round2[incompetent] > round1[incompetent]

    def test_rounds_validated(self):
        fixture = complementary_fixture()
        with pytest.raises(ValueError):
            run_debate(list(fixture.teachers), 0, rounds=0)
        with pytest.raises(ValueError):
            run_debate([], 0, rounds=1)


class TestTwoFieldErrorCorrection:
    """Complementary two-field errors cancel after one debate round."""

    def make_pair(self):
        # expert-a: wrong-but-flat on tools, sharp-right on args;
        # expert-b mirrored. Correct action is (0, 0).
        a_joint = Distribution(np.outer([0.48, 0.52], [0.95, 0.05]).ravel())
        b_joint = Distribution(np.outer([0.95, 0.05], [0.48, 0.52]).ravel())
        teachers = []
        for name, joint in (("a", a_joint), ("b", b_joint)):
            spec = MockTeacherSpec(
                name=name,
                base_table={0: joint},
                revision_rate=0.5,
                action_shape=(2, 2),
            )
            teachers.append(MockTeacher(spec))
        return teachers

    def test_round_two_argmax_hits_ground_truth(self):
        teachers = self.make_pair()
        result = run_debate(teachers, 0, rounds=2)
        for k in range(2):
            assert int(np.argmax(result.post_dists[k].probs)) == 0  # (0, 0)
            assert result.transcript.utterances[1][k].content == (0, 0)

    def test_round_two_confidences_exceed_round_one(self):
        teachers = self.make_pair()
        result = run_debate(teachers, 0, rounds=2)
        for k in range(2):
            r1 = result.transcript.utterances[0][k].confidence
            r2 = result.transcript.utterances[1][k].confidence
            assert r2 > r1


class TestTranscriptFormat:
    def test_six_marker_lines_for_two_by_two(self):
        fixture = complementary_fixture()
        result = run_debate(list(fixture.teachers), 0, rounds=2)
        lines = serialize_transcript(result.transcript).splitlines()
        assert len(lines) == 6
        assert lines[0] == "[Debate Start]"
        assert lines[1].startswith("[Expert A Initial Answer]: ")
        assert lines[2].startswith("[Expert B Initial Answer]: ")
        assert lines[3].startswith("[Expert A Revised Answer]: ")
        assert lines[4].startswith("[Expert B Revised Answer]: ")
        assert lines[5] == "[Debate End]"

    def test_no_cell_serializes_empty(self):
        with pytest.raises(ValueError):
            Utterance((), 50.0)

    def test_parse_names_missing_end_marker(self):
        with pytest.raises(TranscriptParseError, match="Debate End"):
            parse_transcript("[Debate Start]\n[Expert A Initial Answer]: 1 | Confidence Score: 5.0")

    def test_parse_names_missing_cell(self):
        text = (
            "[Debate Start]\n"
            "[Expert A Initial Answer]: 1 | Confidence Score: 5.0\n"
            "[Expert B Revised Answer]: 1 | Confidence Score: 5.0\n"
            "[Debate End]"
        )
        with pytest.raises(TranscriptParseError, match="Expert B Initial"):
            parse_transcript(text)

    def test_parse_rejects_malformed_line(self):
        text = "[Debate Start]\n[Expert A Initial Answer] 1\n[Debate End]"
        with pytest.raises(TranscriptParseError):
            parse_transcript(text)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_serialize_parse_roundtrip(self, n_teachers, n_rounds, data):
        grid = []
        for r in range(1, n_rounds + 1):
            row = []
            for k in range(n_teachers):
                content = tuple(
                    data.draw(
                        st.lists(
                            st.integers(min_value=0, max_value=9), min_size=1, max_size=3
                        )
                    )
                )
                conf = round(data.draw(st.floats(min_value=0, max_value=100)), 2)
                row.append(Utterance(content, conf))
            grid.append(tuple(row))
        # any names, repeats included: the text letters columns, not names
        names = tuple(
            data.draw(st.lists(st.text(max_size=5), min_size=n_teachers, max_size=n_teachers))
        )
        transcript = DebateTranscript(tuple(grid), names, state_ref="s")
        recovered = parse_transcript(serialize_transcript(transcript), state_ref="s")
        assert recovered.utterances == transcript.utterances
        assert recovered.names == tuple(f"Expert {chr(65 + k)}" for k in range(n_teachers))
        assert parse_transcript(serialize_transcript(recovered), state_ref="s") == recovered

    @pytest.mark.parametrize("order", [(1, 0, 1), (0, 0), (1, 0)])
    def test_any_teacher_order_round_trips(self, order):
        teachers = complementary_fixture().teachers
        result = run_debate([teachers[i] for i in order], 7, rounds=2)
        t = result.transcript
        assert t.names == tuple(teachers[i].name for i in order)
        recovered = parse_transcript(serialize_transcript(t))
        assert recovered.utterances == t.utterances

    def test_out_of_range_confidence_is_rejected_naming_its_line(self):
        line = "[Expert A Initial Answer]: 1 | Confidence Score: 100.01"
        with pytest.raises(TranscriptParseError, match=r"Initial Answer.*100\.01.*\[0, 100\]"):
            parse_transcript("\n".join(["[Debate Start]", line, "[Debate End]"]))

    def test_round_zero_is_rejected_naming_its_line(self):
        line = "[Expert A Round 0 Answer]: 1 | Confidence Score: 5.0"
        text = "\n".join(
            [
                "[Debate Start]",
                "[Expert A Initial Answer]: 1 | Confidence Score: 5.0",
                line,
                "[Debate End]",
            ]
        )
        with pytest.raises(TranscriptParseError, match=r"Round 0 Answer.*1-based"):
            parse_transcript(text)

    def test_grid_must_match_its_names(self):
        cell = Utterance((0,), 50.0)
        with pytest.raises(ValueError, match="no teachers"):
            DebateTranscript(((),), ())
        with pytest.raises(ValueError, match="round 2 has 1 cells, expected 2"):
            DebateTranscript(((cell, cell), (cell,)), ("a", "b"))
        with pytest.raises(ValueError, match="round 1 has 2 cells, expected 1"):
            DebateTranscript(((cell, cell),), ("a",))

    def test_confidence_below_1e_4_round_trips(self):
        # repr writes such confidences in exponent form ("1e-05")
        transcript = DebateTranscript(((Utterance((0,), 1e-05),),), ("Expert A",))
        assert parse_transcript(serialize_transcript(transcript)) == transcript

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_parse_rejects_or_round_trips_adversarial_text(self, data):
        """Malformed and adversarial blocks either raise TranscriptParseError
        or parse into a transcript that survives serialize -> parse unchanged.

        A well-formed K x R grid with adversarial values (huge integers,
        confidences above 100 or below 1e-4, Round 0) is mangled by random
        insertions (noise, duplicate or stray cells) and deletions (gaps).
        """
        n_teachers = data.draw(_GRID_SIZE)
        n_rounds = data.draw(_GRID_SIZE)
        lines = [
            data.draw(_GRID_CELLS[(k, r)])
            for r in range(1, n_rounds + 1)
            for k in range(n_teachers)
        ]
        for _ in range(data.draw(_EDITS)):
            at = data.draw(st.integers(min_value=0, max_value=len(lines)))
            if data.draw(st.booleans()) and at < len(lines):
                del lines[at]
            else:
                lines.insert(at, data.draw(_NOISE))
        text = "\n".join(["[Debate Start]", *lines, "[Debate End]"])
        try:
            transcript = parse_transcript(text)
        except TranscriptParseError:
            return
        assert parse_transcript(serialize_transcript(transcript)) == transcript

    def test_jsonl_export(self):
        import json

        a, b = complementary_fixture().teachers
        result = run_debate([b, a, b], 1, rounds=2)
        rows = [json.loads(ln) for ln in transcript_to_jsonl(result.transcript).splitlines()]
        assert set(rows[0]) == {"state", "teacher", "name", "round", "content", "confidence"}
        # each cell is named by its position, whatever the teacher order
        names = ("expert-b", "expert-a", "expert-b")
        assert [(r["round"], r["teacher"], r["name"]) for r in rows] == [
            (r, k, name) for r in (1, 2) for k, name in enumerate(names)
        ]


class TestPrivilegeSeparation:
    def test_no_student_facing_operation_accepts_a_transcript(self):
        """The student's context is the state key and its own tokens; no
        student-side signature may mention DebateTranscript."""
        from debatekd import training

        student_surface = [
            training.StudentPolicy.sample_action,
            training.StudentPolicy.argmax_action,
            training.StudentPolicy.tool_row,
            training.StudentPolicy.arg_row,
            training.rollout,
            training.task_accuracy,
        ]
        for fn in student_surface:
            sig = inspect.signature(fn)
            for param in sig.parameters.values():
                assert "DebateTranscript" not in str(param.annotation)
                assert "Transcript" not in str(param.annotation)
