"""The package's exported names: each resolves, once, and removed names stay gone."""

import contextlib
import io
from pathlib import Path

import cdloops
from cdloops import CentralProduct, Scalar


def test_every_exported_name_resolves():
    for name in cdloops.__all__:
        assert hasattr(cdloops, name), name


def test_exports_are_listed_once():
    assert len(cdloops.__all__) == len(set(cdloops.__all__))


def test_removed_names_are_gone():
    # scalar algebra is spelled with Scalar's operators; rank is ProductElement.rank
    for name in ("scalar_mul", "scalar_inv"):
        assert not hasattr(cdloops, name)
        assert name not in cdloops.__all__
    assert not hasattr(CentralProduct, "rank")
    assert not hasattr(Scalar, "__neg__")


def test_the_readme_quick_start_prints_what_its_comments_say():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert printed == ["-1", "l1l2", "[2, 28, 98]", "43/64", "1145/2048"]
    # Each print's comment starts with what it prints.
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(comments) == 5 and all(c.startswith(p) for c, p in zip(comments, printed))
