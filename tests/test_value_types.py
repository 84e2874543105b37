"""The package's value types: ``CalendarDate``, ``SelectionPolicy``,
``PipelineConfig`` and ``VerbLexicon`` compare by value, print their fields,
refuse assignment, survive pickle and deepcopy, and check their fields when
built."""

import copy
import pickle

import pytest

from persian_norm import PipelineConfig, SelectionPolicy, VerbLexicon, normalize_speech
from persian_norm.pipeline import PASS_NAMES
from persian_norm.scanner import Calendar, CalendarDate

_LEXICON_FIELDS = dict(
    past_stems=frozenset({"رفت"}),
    present_stems=frozenset({"رو"}),
    past_suffixes=("م",),
    present_suffixes=("ند",),
    auxiliaries=frozenset(),
    full_forms=frozenset(),
)


def _lexicon(**fields):
    return VerbLexicon(**{**_LEXICON_FIELDS, **fields})


# each value built by keyword, the same value built positionally, a value
# that differs in one field, and its repr
_CASES = {
    "date": (
        CalendarDate(calendar=Calendar.SOLAR_HIJRI, year=1400, month=1, day=2),
        CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 2),
        CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 3),
        "CalendarDate(calendar=<Calendar.SOLAR_HIJRI: 'SOLAR_HIJRI'>, "
        "year=1400, month=1, day=2)",
    ),
    "fixed": (
        SelectionPolicy(index=2),
        SelectionPolicy(2, None),
        SelectionPolicy(3),
        "SelectionPolicy(index=2, seed=None)",
    ),
    "seeded": (
        SelectionPolicy(seed=7),
        SelectionPolicy(0, 7),
        SelectionPolicy(seed=8),
        "SelectionPolicy(index=0, seed=7)",
    ),
    "config": (
        PipelineConfig(enabled_passes={"strip_emojis"},
                       policy=SelectionPolicy.seeded(7)),
        PipelineConfig(frozenset({"strip_emojis"}), SelectionPolicy(0, 7)),
        PipelineConfig(enabled_passes={"fold_digits"},
                       policy=SelectionPolicy.seeded(7)),
        "PipelineConfig(enabled_passes=frozenset({'strip_emojis'}), "
        "policy=SelectionPolicy(index=0, seed=7))",
    ),
    "lexicon": (
        _lexicon(),
        VerbLexicon(*_LEXICON_FIELDS.values()),
        _lexicon(auxiliaries=frozenset({"خواهد"})),
        "VerbLexicon(past_stems=frozenset({'رفت'}), "
        "present_stems=frozenset({'رو'}), past_suffixes=('م',), "
        "present_suffixes=('ند',), auxiliaries=frozenset(), "
        "full_forms=frozenset())",
    ),
}
_IDS = list(_CASES)


@pytest.mark.parametrize("case", _IDS)
def test_equal_values_compare_and_hash_alike(case):
    value, same, other, _ = _CASES[case]
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("case", _IDS)
def test_repr_names_every_field(case):
    value, _, _, text = _CASES[case]
    assert repr(value) == text


_FIELDS = {
    "date": ("calendar", "year", "month", "day"),
    "fixed": ("index", "seed"),
    "seeded": ("index", "seed"),
    "config": ("enabled_passes", "policy"),
    "lexicon": (*_LEXICON_FIELDS, "past_forms", "present_forms"),
}


@pytest.mark.parametrize("case", _IDS)
def test_assignment_raises(case):
    value = _CASES[case][0]
    for name in (*_FIELDS[case], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == _CASES[case][1]


@pytest.mark.parametrize("roundtrip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-0", "deepcopy", "copy"])
@pytest.mark.parametrize("case", _IDS)
def test_roundtrip_keeps_the_value(case, roundtrip):
    value = _CASES[case][0]
    back = roundtrip(value)
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)


def test_lexicon_forms_survive_a_roundtrip():
    lexicon = _lexicon()
    assert lexicon.past_forms == {"رفتم"}
    assert lexicon.present_forms == {"رو", "روند"}
    for back in (pickle.loads(pickle.dumps(lexicon)), copy.deepcopy(lexicon)):
        assert back.past_forms == lexicon.past_forms
        assert back.present_forms == lexicon.present_forms


def test_defaults():
    assert SelectionPolicy() == SelectionPolicy.fixed() == SelectionPolicy(0, None)
    assert SelectionPolicy.seeded(3) == SelectionPolicy(seed=3)
    config = PipelineConfig()
    assert config.enabled_passes == frozenset(PASS_NAMES)
    assert config.policy == SelectionPolicy.fixed()
    assert PipelineConfig(policy=SelectionPolicy.fixed(1)).enabled_passes == \
        frozenset(PASS_NAMES)
    assert PipelineConfig({"fold_digits"}).policy == SelectionPolicy.fixed()


def test_enabled_passes_is_a_frozenset():
    for passes in (["fold_digits"], ("fold_digits",), {"fold_digits": 1}):
        assert PipelineConfig(passes).enabled_passes == frozenset({"fold_digits"})
    assert PipelineConfig(()).enabled_passes == frozenset()


def test_disable_drops_one_pass_and_keeps_the_policy():
    config = PipelineConfig(policy=SelectionPolicy.seeded(4)).disable("fold_digits")
    assert config == PipelineConfig(
        frozenset(PASS_NAMES) - {"fold_digits"}, SelectionPolicy.seeded(4))


@pytest.mark.parametrize("build, message", [
    (lambda: SelectionPolicy(index=-1), "option index must be 0 or more, not -1"),
    (lambda: SelectionPolicy.fixed(-2), "option index must be 0 or more, not -2"),
    (lambda: PipelineConfig(enabled_passes={"bogus", "fold_digits", "ab"}),
     r"unknown pass names: \['ab', 'bogus'\]"),
    (lambda: PipelineConfig().disable("bogus"), "unknown pass name: bogus"),
    (lambda: CalendarDate(Calendar.SOLAR_HIJRI, 0, 1, 1), "invalid year: 0"),
    (lambda: CalendarDate(Calendar.GREGORIAN, 2020, 13, 1), "invalid month: 13"),
    (lambda: CalendarDate(Calendar.GREGORIAN, 2020, 0, 1), "invalid month: 0"),
    (lambda: CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 31),
     r"invalid day 31 for month 7 \(SOLAR_HIJRI\)"),
    (lambda: CalendarDate(Calendar.GREGORIAN, 2018, 2, 0),
     r"invalid day 0 for month 2 \(GREGORIAN\)"),
    (lambda: _lexicon(past_stems=frozenset()), "verb lexicon has no past stems"),
], ids=["negative-index", "negative-fixed", "unknown-pass", "disable-unknown",
        "year", "month-13", "month-0", "day-31", "day-0", "no-past-stems"])
def test_bad_field_raises_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_enabled_passes_refuses_a_bare_string():
    # a string is a collection of its characters, each no pass name
    with pytest.raises(TypeError, match="not the string 'strip_emojis'"):
        PipelineConfig(enabled_passes="strip_emojis")
    with pytest.raises(TypeError, match="not the string ''"):
        PipelineConfig("")


@pytest.mark.parametrize("index", [1.5, True, False, "1", None, 2.0])
def test_policy_index_must_be_an_int(index):
    with pytest.raises(TypeError, match="option index must be an int"):
        SelectionPolicy(index=index)
    with pytest.raises(TypeError, match="option index must be an int"):
        SelectionPolicy.fixed(index)


@pytest.mark.parametrize("seed", [[1], {}, (1,), 1j, frozenset()],
                         ids=repr)
def test_policy_seed_must_be_a_type_random_takes(seed):
    with pytest.raises(TypeError, match="seed must be an int, float, str, bytes"):
        SelectionPolicy.seeded(seed)
    with pytest.raises(TypeError, match="seed must be an int, float, str, bytes"):
        SelectionPolicy.seeded(1)._replace(seed=seed)


def test_bytearray_seed_is_kept_as_bytes():
    seed = bytearray(b"seed")
    policy = SelectionPolicy.seeded(seed)
    assert policy.seed == b"seed" and type(policy.seed) is bytes
    assert hash(PipelineConfig(policy=policy)) == \
        hash(PipelineConfig(policy=SelectionPolicy.seeded(b"seed")))
    config = PipelineConfig(policy=policy)
    before = normalize_speech("کارت 6104337852441441", config)
    seed[:] = b"other"
    assert normalize_speech("کارت 6104337852441441", config) == before


def test_replace_checks_the_fields():
    with pytest.raises(ValueError, match="option index must be 0 or more"):
        SelectionPolicy.fixed()._replace(index=-1)
    with pytest.raises(ValueError, match="unknown pass names"):
        PipelineConfig()._replace(enabled_passes={"bogus"})
    with pytest.raises(ValueError, match="invalid day 32"):
        CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 2)._replace(day=32)
    with pytest.raises(ValueError, match="no past stems"):
        _lexicon()._replace(past_stems=frozenset())
    lexicon = _lexicon()._replace(past_suffixes=("م", "ند"))
    assert lexicon.past_forms == {"رفتم", "رفتند"}
    assert lexicon.present_forms == {"رو", "روند"}


def test_values_are_tuples_of_their_fields():
    assert SelectionPolicy.fixed(2) == (2, None)
    assert tuple(CalendarDate(Calendar.GREGORIAN, 2020, 2, 29)) == \
        (Calendar.GREGORIAN, 2020, 2, 29)
    assert PipelineConfig._fields == ("enabled_passes", "policy")
    assert len(_lexicon()) == 6
