"""Bits shared by several test modules: fixture loading and the corpus."""

from importlib import resources

from wordactors.features import FeatureStructure, render_fs

FIXTURES = resources.files("wordactors").joinpath("fixtures")

DEMO_SENTENCE = "Compaq entwickelt einen Notebook mit einer 120-MByte-Harddisk".split()

DEMO_EDGES = [
    "entwickelt —dirobj→ Notebook",
    "entwickelt —subj→ Compaq",
    "Notebook —ppatt→ mit",
    "Notebook —spec→ einen",
    "mit —obj→ 120-MByte-Harddisk",
    "120-MByte-Harddisk —spec→ einer",
]


def fixture_text(name: str) -> str:
    return FIXTURES.joinpath(name).read_text()


def fixture_path(name: str) -> str:
    return str(FIXTURES.joinpath(name))


def corpus_cases():
    """(expected reading count, token tuple) pairs from the bundled corpus."""
    cases = []
    for raw in fixture_text("corpus.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        want, _, sent = line.partition("|")
        cases.append((int(want.strip()), tuple(sent.split())))
    return cases


def fs_text(value):
    """A ``json.dumps`` default hook for trace params: a feature structure
    is written as its text, anything else json cannot write is refused."""
    if isinstance(value, FeatureStructure):
        return render_fs(value)
    raise TypeError(f"{type(value).__name__} in params")
