"""Every function in src/sftstring is called by an `sft` command on the
corpus, or is on the census allow-list with a category and a reason
(tests/census.py; `python tests/census.py --acceptance` adds the
acceptance criteria)."""

import census


def test_every_function_serves_a_user_path():
    assert census.problems() == []
