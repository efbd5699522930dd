import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_the_childrens_import_path():
    """Some CLI tests run `python -m seshadri.cli` in a child process.  pytest
    puts `src` on its own import path (`pythonpath` in pyproject.toml); this
    puts it on the children's path too, so a bare `python -m pytest` needs no
    installed copy of the package."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        yield
