import json
from types import SimpleNamespace

import pytest

from corpus import HERE, RUN, fresh, write_inputs


@pytest.fixture
def refuse(monkeypatch):
    """``refuse(owner, name, what)`` replaces ``owner.name`` by a stand-in
    that fails the test with ``what``: work that must not start."""
    def patch(owner, name, what):
        def refused(*args, **kwargs):
            raise AssertionError(what)

        monkeypatch.setattr(owner, name, refused)
    return patch


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """The corpus lines ``corpus.RUN``, run once per session by
    ``corpus_run.py`` in one fresh interpreter.  Holds the run's directory
    ``path``, the ``lines``, their ``expected`` exit codes, the ``codes``
    they gave and every other field ``corpus_run.py`` prints."""
    path = tmp_path_factory.mktemp("corpus")
    write_inputs(path)
    result = json.loads(fresh(str(HERE / "corpus_run.py"),
                              json.dumps([argv for _, _, argv in RUN]), cwd=path))
    return SimpleNamespace(path=path, lines=RUN, expected=[code for code, _, _ in RUN],
                           codes=[code for code, _, _ in result["runs"]], **result)
