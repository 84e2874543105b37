"""Where emails and URLs start and end."""

from persian_norm import SemioticClass, normalize_speech, scan


def test_email_with_tld_word_in_local_part():
    assert normalize_speech("ایمیل mina.info@example.com است") == \
        "ایمیل mina dot info at example dot com است"


def test_email_with_tld_word_in_local_part_is_idempotent():
    out = normalize_speech("ایمیل mina.info@example.com است")
    assert normalize_speech(out) == out


def test_url_stops_before_sentence_final_dot():
    spans = scan("سایت example.com.")
    assert [(s.cls, s.raw) for s in spans] == [(SemioticClass.URL, "example.com")]


def test_url_does_not_stop_inside_a_longer_host():
    assert not [s for s in scan("google.com.au") if s.cls is SemioticClass.URL]
    assert [s.raw for s in scan("example.com.ir")] == ["example.com.ir"]


def test_glued_emails_start_only_after_a_separator():
    # "_x@c.com" is glued to the first email, so no second email starts there
    assert normalize_speech("a@b.com_x@c.com") == \
        "a at b dot com _x ات سی‌سی‌او‌ام"


def test_url_trims_trailing_punctuation():
    assert [(s.cls, s.raw) for s in scan("سایت http://a.ir/x. را")] == \
        [(SemioticClass.URL, "http://a.ir/x")]
    assert [(s.cls, s.raw) for s in scan("به www.a.ir) بروید")] == \
        [(SemioticClass.URL, "www.a.ir")]
