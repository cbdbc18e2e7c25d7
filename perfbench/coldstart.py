"""One cold start: a fresh interpreter imports wordactors from this
checkout's src/, loads the bundled lexicon and both KBs, validates them and
derives the event type network, then exits.  ``run.py`` times it from
launch to exit; the exit code is 0 only if everything loaded cleanly."""

import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wordactors as wa  # noqa: E402

fixtures = resources.files("wordactors").joinpath("fixtures")
lex = wa.load_lexicon(fixtures.joinpath("demo.lex").read_text())
kbs = [wa.load_kb(fixtures.joinpath(name).read_text())
       for name in ("demo.kb", "demo_permissive.kb")]
problems = [p for kb in kbs for p in wa.validate_lexicon(lex, kb)]
etn = wa.derive_etn(wa.protocol_behaviors())
if problems or not etn.edges:
    sys.exit(f"set-up failed: {problems or 'empty type network'}")
