"""The package's public names, pinned.

``wordactors.__all__`` is part of the package's behaviour, like the trace
bytes and the CLI exit codes: a change to it changes this list on purpose.
"""

import wordactors

PUBLIC_NAMES = [
    "EMPTY",
    "ConceptTaxonomy",
    "Edge",
    "EventNetwork",
    "EventTypeNetwork",
    "FSSyntaxError",
    "FeatureStructure",
    "KBError",
    "Lexicon",
    "LexiconError",
    "LivelockError",
    "ParseTree",
    "System",
    "build_system",
    "check_invariants",
    "compare_networks",
    "derive_etn",
    "derive_script",
    "export",
    "is_a",
    "is_projective",
    "load_kb",
    "load_lexicon",
    "oracle_parse",
    "protocol_behaviors",
    "parse_fs",
    "render_fs",
    "resolve_entry",
    "role_permits",
    "run_parse",
    "subclass_of",
    "subsumes",
    "unify",
    "validate_lexicon",
    "__version__",
]


def test_public_names_are_pinned():
    assert wordactors.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(wordactors, name)] == []
