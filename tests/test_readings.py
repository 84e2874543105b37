"""Counted digit-group readings agree with the eagerly built lists."""

import itertools
import random
import sys
import threading
import time

import pytest

from persian_norm import (
    PhoneKind,
    PipelineConfig,
    SelectionPolicy,
    SemioticClass,
    SemioticSpan,
    enumerate_verbalizations,
    normalize_general,
    normalize_speech,
    scan,
    validate_card,
    validate_national_id,
    validate_sheba,
)
from persian_norm import numwords, pipeline, verbalize
from persian_norm.pipeline import _assemble, span_variants
from persian_norm.verbalize import (
    READINGS,
    GroupedReadings,
    composition_at,
    composition_count,
    compositions,
    phone_readings,
    time_variants,
)


def _digits(rng, n):
    return "".join(rng.choice("0123456789") for _ in range(n))


def _card(rng):
    while True:
        digits = _digits(rng, 15)
        for check in "0123456789":
            if validate_card(digits + check):
                return digits + check


def _national_id(rng):
    while True:
        digits = _digits(rng, 9)
        for check in "0123456789":
            if validate_national_id(digits + check):
                return digits + check


def _sheba(rng):
    body = _digits(rng, 22)
    check = 98 - int(body + "182700") % 97
    sheba = f"IR{check:02d}{body}"
    assert validate_sheba(sheba)
    return sheba


def _mobile(rng):
    return "09" + _digits(rng, 9)


def _id_readings(digits, cls):
    """The readings ``READINGS`` gives a span of ``cls`` written ``digits``."""
    return READINGS[cls](SemioticSpan(0, len(digits), cls, digits, {}))


def _all(family):
    return [family[i] for i in range(len(family))]


def test_counts_match_compositions():
    for n in range(0, 40):
        assert composition_count(n) == len(compositions(n))
    assert composition_count(-1) == 0
    assert composition_count(16) == 37
    assert composition_count(24) == 351


def test_composition_at_unranks_in_order():
    for n in range(0, 30):
        assert [composition_at(n, i) for i in range(composition_count(n))] == \
            list(compositions(n))
    with pytest.raises(IndexError):
        composition_at(16, 37)


def test_count_needs_no_recursion():
    # far past the recursion limit; c(n) grows as about 1.3247**n
    assert composition_count(5000) > 10**600
    assert sum(composition_at(5000, composition_count(5000) - 1)) == 5000


def _top_down_composition_at(n, index):
    """The earlier unranker, kept as a reference: counts every composition
    of n, then steps that window of counts down one group at a time."""
    a, b, c = 0, 0, 1  # (c(m-2), c(m-1), c(m)), iterated up to m = n
    for _ in range(n):
        a, b, c = b, c, a + b
    if not 0 <= index < c:
        raise IndexError(f"composition {index} of {n} out of range ({c})")
    sizes = []
    while n:
        threes = c - a
        c4 = b - threes
        if index < threes:
            sizes.append(3)
            n -= 3
            a, b, c = a - c4, c4, threes
        else:
            index -= threes
            sizes.append(2)
            n -= 2
            a, b, c = c4, threes, a
    return tuple(sizes)


def test_composition_at_matches_the_top_down_unranker():
    rng = random.Random(17)
    for n in [*range(0, 160), *range(160, 3001, 89), 2999, 3000]:
        count = composition_count(n)
        indexes = {i for i in range(6) if i < count}
        indexes |= {rng.randrange(count) for _ in range(4)} if count else set()
        indexes |= {count - 1} if count else set()
        for index in indexes:
            assert composition_at(n, index) == _top_down_composition_at(n, index)
        for index in (count, count + 5, -1):
            with pytest.raises(IndexError):
                composition_at(n, index)


def test_zero_heavy_cards_match_the_top_down_unranker(monkeypatch):
    # the lead's dedup shifts each index past the ranks that read like it
    rng = random.Random(19)
    cards = ["".join(rng.choice("0001") for _ in range(16)) for _ in range(100)]
    families = [_id_readings(card, SemioticClass.CARD_NUMBER) for card in cards]
    read = [_all(family) for family in families]
    monkeypatch.setattr(verbalize, "composition_at", _top_down_composition_at)
    assert [_all(family) for family in families] == read


def test_render_matches_eager_list_for_every_length():
    rng = random.Random(5)
    for n in range(2, 31):
        family = GroupedReadings(_digits(rng, n))
        eager = family.readings()
        assert len(family) == len(eager)
        for i, reading in enumerate(eager):
            assert family[i] == reading


def test_families_match_variant_lists():
    rng = random.Random(11)
    for _ in range(30):
        mobile = _mobile(rng)
        assert _all(phone_readings(mobile, PhoneKind.MOBILE)) == \
            phone_readings(mobile, PhoneKind.MOBILE).readings()
        landline = "021" + _digits(rng, 8)
        assert _all(phone_readings(landline, PhoneKind.LANDLINE)) == \
            phone_readings(landline, PhoneKind.LANDLINE).readings()
        short = _digits(rng, 8)
        assert _all(phone_readings(short, PhoneKind.LANDLINE)) == \
            phone_readings(short, PhoneKind.LANDLINE).readings()
        for digits, cls in ((_national_id(rng), SemioticClass.NATIONAL_ID),
                            (_card(rng), SemioticClass.CARD_NUMBER),
                            (_sheba(rng), SemioticClass.SHEBA),
                            (_digits(rng, rng.randrange(16, 26)),
                             SemioticClass.LONG_NUMBER)):
            assert _all(_id_readings(digits, cls)) == \
                _id_readings(digits, cls).readings()


def test_cards_with_zero_runs_match_variant_list():
    # zero runs let a 3-digit group read like two 2-digit groups
    rng = random.Random(3)
    for _ in range(200):
        digits = "".join(rng.choice("0001") for _ in range(16))
        family = _id_readings(digits, SemioticClass.CARD_NUMBER)
        assert _all(family) == _id_readings(
            digits, SemioticClass.CARD_NUMBER).readings()


def test_card_with_a_second_fixed_reading():
    family = _id_readings("6050000010942098", SemioticClass.CARD_NUMBER)
    assert len(family) == 36
    assert _all(family) == _id_readings(
        "6050000010942098", SemioticClass.CARD_NUMBER).readings()


def test_negative_index_counts_from_the_end():
    family = _id_readings("6050000010942098", SemioticClass.CARD_NUMBER)
    assert family[-1] == family.readings()[-1]


_SCRIPTS = [str.maketrans("", ""),
            str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹"),
            str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")]


@pytest.mark.parametrize("cls, raw, data", [
    (SemioticClass.PHONE, "09121234567", {"kind": PhoneKind.MOBILE}),
    (SemioticClass.PHONE, "02112345678", {"kind": PhoneKind.LANDLINE}),
    (SemioticClass.NATIONAL_ID, "0523924984", {}),
    (SemioticClass.CARD_NUMBER, "6050000010942098", {}),
    (SemioticClass.SHEBA, "IR820540102680020817909002", {}),
    (SemioticClass.LONG_NUMBER, "10020003000040000500", {}),
])
def test_families_read_every_digit_script_alike(cls, raw, data):
    # ASCII, Persian and Arabic-Indic digits: the same readings, zeros and all
    families = [READINGS[cls](SemioticSpan(0, len(raw), cls, raw.translate(t), data))
                for t in _SCRIPTS]
    firsts = [[f[i] for i in range(min(50, len(f)))] for f in families]
    assert firsts[1] == firsts[0] and firsts[2] == firsts[0]
    assert len(families[1]) == len(families[0]) == len(families[2])


def test_digit_groups_count_zeros_in_every_script():
    card = "۶۰۵۰۰۰۰۰۱۰۹۴۲۰۹۸"  # 6050000010942098
    assert len(GroupedReadings(card, lead=(2,) * 8)) == 36
    assert GroupedReadings("٠٥٢٣٩٢٤٩٨٤")[0].startswith("صفر ")


def test_every_class_has_readings():
    assert set(READINGS) == set(SemioticClass)


def test_families_are_sequences_of_their_readings():
    rng = random.Random(13)
    families = [_id_readings("6050000010942098", SemioticClass.CARD_NUMBER)]
    for _ in range(20):
        families += [
            phone_readings(_mobile(rng), PhoneKind.MOBILE),
            phone_readings("021" + _digits(rng, 8), PhoneKind.LANDLINE),
            phone_readings(_digits(rng, 8), PhoneKind.LANDLINE),
            _id_readings(_national_id(rng), SemioticClass.NATIONAL_ID),
            _id_readings(_sheba(rng), SemioticClass.SHEBA),
            _id_readings(_digits(rng, rng.randrange(16, 26)),
                         SemioticClass.LONG_NUMBER),
        ]
    for _ in range(200):
        zero_heavy = "".join(rng.choice("0001") for _ in range(16))
        families.append(_id_readings(zero_heavy, SemioticClass.CARD_NUMBER))
    for family in families:
        assert list(family) == family.readings()
        with pytest.raises(IndexError):
            family[len(family)]
        with pytest.raises(IndexError):
            family[-len(family) - 1]


def test_enumeration_is_the_product_of_every_reading():
    line = "کارت 6104337852441441 با موبایل 09397796915 ساعت 11:35"
    config = PipelineConfig()
    text = normalize_general(line, config)
    spans = scan(text)
    assert [s.cls for s in spans] == [SemioticClass.CARD_NUMBER,
                                      SemioticClass.PHONE, SemioticClass.TIME]
    lists = [
        _id_readings("6104337852441441", SemioticClass.CARD_NUMBER).readings(),
        phone_readings("09397796915", PhoneKind.MOBILE).readings(),
        time_variants(11, 35),
    ]
    expected = list(dict.fromkeys(
        _assemble(text, spans, list(combo)) for combo in itertools.product(*lists)
    ))
    assert enumerate_verbalizations(line, config) == expected


def _seeded_lines(n, seed=8):
    rng = random.Random(seed)
    return [f"کارت {_card(rng)} و شبا {_sheba(rng)} "
            f"و موبایل {_mobile(rng)} و ساعت 11:35 و تاریخ 1400/07/25"
            for _ in range(n)]


def _drawn_like_choose(line, seed):
    """``normalize_speech`` of ``line`` under ``seeded(seed)`` as the
    policy's draws from a fresh ``random.Random(seed)``."""
    config = PipelineConfig(policy=SelectionPolicy.seeded(seed))
    text = normalize_general(line, config)
    spans = scan(text)
    draws = random.Random(seed)
    return _assemble(text, spans, [
        config.policy.choose(span_variants(span), draws) for span in spans])


def test_seeded_speech_draws_like_choose():
    lines = _seeded_lines(12)
    for seed in range(5):
        config = PipelineConfig(policy=SelectionPolicy.seeded(seed))
        for line in lines:
            assert normalize_speech(line, config) == _drawn_like_choose(line, seed)


# 1, 1.0 and True are equal and seed one state; 2**80 and 2.0**80 are equal
# but seed two, as an int seeds by its value and a float by its hash
@pytest.mark.parametrize("seed", [
    0, -3, 2**80, 2.0**80, 1, 1.0, True, "بذر", b"\x00seed", bytearray(b"\x00seed"),
], ids=repr)
def test_seeded_speech_draws_like_a_fresh_generator(seed):
    config = PipelineConfig(policy=SelectionPolicy.seeded(seed))
    for line in _seeded_lines(4):
        assert normalize_speech(line, config) == _drawn_like_choose(line, seed)


class _IntSeed(int):
    pass


def test_equal_seeds_of_two_types_keep_their_own_states():
    # an int subclass seeds by its value, a float by its hash: a cache that
    # took the two equal seeds for one key would give the second the
    # first's draws
    pipeline._seed_state.cache_clear()
    line = _seeded_lines(1)[0]
    for seed in (_IntSeed(2**80), 2.0**80, 2**80):
        assert normalize_speech(line, PipelineConfig(policy=SelectionPolicy.seeded(seed))) \
            == _drawn_like_choose(line, seed)


def test_two_seeds_alternating_draw_as_each_alone():
    lines = _seeded_lines(6)
    configs = {seed: PipelineConfig(policy=SelectionPolicy.seeded(seed))
               for seed in (3, "سه")}
    for line in lines:
        for seed, config in configs.items():
            assert normalize_speech(line, config) == _drawn_like_choose(line, seed)


def test_threads_with_their_own_seeds_draw_as_sequential_runs():
    lines = _seeded_lines(20)
    seeds = (1, 2, "یک", b"two")  # more threads than the two cores of CI
    configs = [PipelineConfig(policy=SelectionPolicy.seeded(s)) for s in seeds]
    expected = [[normalize_speech(line, c) for line in lines] for c in configs]
    results = [None] * len(configs)

    def run(k):
        results[k] = [normalize_speech(line, configs[k]) for line in lines * 5]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [e * 5 for e in expected]


def test_reading_caches_are_bounded():
    for cached in (pipeline._seed_state, numwords._group_words,
                   numwords.ordinal_words, numwords.cardinal_words):
        assert cached.cache_parameters()["maxsize"] is not None, cached


def test_a_family_of_non_digits_raises_value_error():
    for digits in ("12a4", "", "12 4", "1_23", "+123", "०५٢٣"):
        with pytest.raises(ValueError):
            GroupedReadings(digits)
    for digits, lead in (("1234", (2,)), ("12345", (5,)), ("1234", (0, 2, 2))):
        with pytest.raises(ValueError):
            GroupedReadings(digits, lead=lead)
    # a lead on a run shorter than a group of 3
    assert list(GroupedReadings("7", lead=(1,))) == ["هفت"]


def test_enumeration_cap_checked_before_building():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        enumerate_verbalizations("شماره " + "7" * 60)
    assert time.perf_counter() - start < 1.0


def test_enumeration_cap_names_the_cap_for_any_count():
    # 10**4400 outputs: past the 4300 decimal digits Python prints of an int
    with pytest.raises(ValueError, match="more than 10000 outputs"):
        enumerate_verbalizations(" و ".join(["1400-07-25"] * 4400))


def test_thousand_digit_run_is_spoken():
    text = "شماره " + "".join(str(i % 9 + 1) for i in range(1000))
    for policy in (SelectionPolicy.fixed(), SelectionPolicy.seeded(1)):
        start = time.perf_counter()
        out = normalize_speech(text, PipelineConfig(policy=policy))
        assert time.perf_counter() - start < 1.0
        assert not any(ch.isdigit() for ch in out)
