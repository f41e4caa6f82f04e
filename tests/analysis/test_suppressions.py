"""Suppression comments: reasons are mandatory, coverage is line-scoped."""

import textwrap

from repro.analysis.reprolint import lint_source

CORE = "src/repro/core/snippet.py"


def lint(source):
    return lint_source(textwrap.dedent(source), CORE)


def active(findings):
    return [f for f in findings if not f.suppressed]


def test_inline_suppression_with_reason_mutes_the_finding():
    found = lint("""
    def _merge(partials):
        for k, v in partials.items():  # reprolint: disable=D103 -- keys are inserted sorted upstream
            consume(k, v)
    """)
    assert active(found) == []
    muted = [f for f in found if f.suppressed]
    assert [f.rule for f in muted] == ["D103"]
    assert muted[0].reason == "keys are inserted sorted upstream"


def test_standalone_suppression_covers_the_next_line():
    found = lint("""
    def _merge(partials):
        # reprolint: disable=D103 -- keys are inserted sorted upstream
        for k, v in partials.items():
            consume(k, v)
    """)
    assert active(found) == []


def test_suppression_does_not_leak_to_other_lines():
    found = lint("""
    def _merge(partials):
        for k, v in partials.items():  # reprolint: disable=D103 -- first loop only
            consume(k, v)
        for k, v in partials.items():
            consume(k, v)
    """)
    assert [f.rule for f in active(found)] == ["D103"]


def test_suppression_without_reason_is_r001_and_does_not_mute():
    found = lint("""
    def _merge(partials):
        for k, v in partials.items():  # reprolint: disable=D103
            consume(k, v)
    """)
    rules = sorted(f.rule for f in active(found))
    assert rules == ["D103", "R001"]


def test_unknown_rule_id_is_r002():
    found = lint("""
    x = 1  # reprolint: disable=Z999 -- no such rule
    """)
    assert [f.rule for f in active(found)] == ["R002"]


def test_disable_file_covers_every_occurrence():
    found = lint("""
    # reprolint: disable-file=D103 -- synthetic ordering fixture
    def _merge(partials):
        for k, v in partials.items():
            consume(k, v)
        for k, v in partials.items():
            consume(k, v)
    """)
    assert active(found) == []
    assert len([f for f in found if f.suppressed]) == 2


def test_disable_file_only_covers_its_listed_rules():
    found = lint("""
    # reprolint: disable-file=D103 -- ordering is synthetic here
    import random

    def _merge(partials):
        for k, v in partials.items():
            consume(k, v)
    """)
    assert [f.rule for f in active(found)] == ["D101"]


def test_syntax_error_becomes_r003():
    found = lint_source("def broken(:\n", CORE)
    assert [f.rule for f in found] == ["R003"]


def test_multiple_ids_in_one_comment():
    found = lint("""
    import random  # reprolint: disable=D101,D103 -- fixture exercising both ids
    """)
    assert active(found) == []


def test_suppressions_quoted_in_strings_suppress_nothing():
    found = lint('''
    """Quoting a suppression in a docstring is documentation:

        # reprolint: disable-file=D103 -- from the docstring
    """
    NOTE = "# reprolint: disable=D103 -- from a string literal"
    #: ``# reprolint: disable=D103 -- from a doc-comment``

    def _merge(partials):
        for k, v in partials.items():
            consume(k, v)
    ''')
    assert [f.rule for f in found] == ["D103"]
    assert active(found) == found


def test_comment_after_a_multiline_string_is_trailing():
    found = lint('''
    def _merge(partials):
        doc = """
        """  # reprolint: disable=D103 -- covers this line only
        for k, v in partials.items():
            consume(k, v)
    ''')
    assert [f.rule for f in active(found)] == ["D103"]
