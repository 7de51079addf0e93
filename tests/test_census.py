"""Every function in src/sftstring is called by an `sft` command on the
corpus, or is on the census allow-list with a category and a reason;
every option of a called function is set by the corpus or allow-listed
(tests/census.py; `python tests/census.py --acceptance` adds the
acceptance criteria).  The other tests feed the census rules a changed
tree or allow-list and check that each breach is reported."""

import pytest

import census


@pytest.fixture(scope="module")
def record():
    got = census.observe()
    assert not isinstance(got, str), got
    return got


def test_every_function_serves_a_user_path(record):
    assert census.judge(record) == []


def test_option_set_by_no_user_path_is_reported(record, monkeypatch):
    """A defaulted parameter added to a function the corpus calls, which
    no call sets, and an allow-listed option taken off the list."""
    definitions = census._definitions()

    def with_extra():
        return [(key, name, dict(defaults, extra=0) if name == "cli.main"
                 else defaults) for key, name, defaults in definitions]
    monkeypatch.setattr(census, "_definitions", with_extra)
    allowed = dict(census.ALLOWED_OPTIONS)
    del allowed["strings.check_string_identities(max_slots)"]
    monkeypatch.setattr(census, "ALLOWED_OPTIONS", allowed)
    got = census.judge(record)
    assert [line.split(" (")[0] for line in got] == [
        "set by no user path and not allow-listed: cli.main(extra)",
        "set by no user path and not allow-listed: "
        "strings.check_string_identities(max_slots)"]


def test_allow_listed_option_that_no_longer_exists_is_reported(
        record, monkeypatch):
    allowed = dict(census.ALLOWED_OPTIONS)
    allowed["weyl.star(coeff)"] = ("error path", "deleted")
    monkeypatch.setattr(census, "ALLOWED_OPTIONS", allowed)
    assert census.judge(record) == [
        "allow-listed, but no such option: weyl.star(coeff)"]


def test_criterion_option_its_criterion_does_not_set_is_reported(record):
    """With the acceptance labels, a "criterion N" option entry must be
    set by test_criterion_N_*: here criterion 10 calls what the corpus
    calls and sets nothing."""
    labels = dict(record)
    labels["test_criterion_10_master_with_boundary"] = {
        "calls": record["cli"]["calls"], "set": []}
    got = census.judge(labels, acceptance=True)
    assert "strings.ClassAlgebra.single(coeff): not set by criterion 10" in got
