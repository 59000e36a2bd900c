from collections.abc import Mapping

import pytest

from fiblex.fincat import SetFunctor, _derived, validate_setfunctor
from fiblex.scenario import load_scenario
from setup_probe import KINDS, document, main


class CountedReads(Mapping):
    """A meaning's table that records each key read from it, or walked."""

    def __init__(self, table):
        self.table, self.read = table, []

    def __getitem__(self, key):
        self.read.append(key)
        return self.table[key]

    def __iter__(self):
        for key in self.table:
            self.read.append(key)
            yield key

    def __len__(self):
        return len(self.table)


def reads_of_the_check(kind: str, k: int) -> tuple[list, list]:
    """The fibres and the graphs that the meaning check reads for the
    probe's first speaker on the ``kind`` language padded with ``k``
    objects, in the order it reads them."""
    meaning = load_scenario(document(kind, k, 1)).speakers["s0"].meaning
    value, action = CountedReads(meaning.value), CountedReads(meaning.action)
    counted = _derived(SetFunctor, base=meaning.base, value=value, action=action)
    assert validate_setfunctor(counted) == []
    return value.read, action.read


@pytest.mark.parametrize("kind", KINDS)
def test_the_meaning_check_reads_the_same_at_every_padding(kind):
    reads = reads_of_the_check(kind, 0)
    assert reads_of_the_check(kind, 3200) == reads
    fibres, graphs = reads
    assert set(fibres) == {"w"} and set(graphs) == {"id_w"}


@pytest.mark.parametrize("kind", KINDS)
def test_a_padded_speaker_stores_what_it_knows(kind):
    speaker = load_scenario(document(kind, 40, 2)).speakers["s1"]
    assert speaker.meaning.value == {"w": frozenset({"a1", "b1"})}
    assert speaker.meaning.action == {"id_w": {"a1": "a1", "b1": "b1"}}
    assert speaker.fibre("z0") == frozenset()


def test_probe_prints_one_row_per_padding(capsys):
    main(["0", "40"])
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["K", "discrete:S=1", "discrete:S=20", "free:S=1", "free:S=20",
                               "discrete:added", "free:added", "tables"]
    assert [row.split()[0] for row in rows[1:]] == ["0", "40"]
