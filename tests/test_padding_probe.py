import pytest

from padding_probe import events, main


@pytest.mark.parametrize("k", [0, 40])
def test_probed_events_learn_the_same_fibres_at_every_padding(k):
    runs = events(k)
    example, _ = runs["example"]()
    merged, _ = runs["merged"]()
    paraphrased, report = runs["paraphrasis"]()
    assert example.fibre("cat") == {"cleo"}
    assert merged.fibre("cat") == {"tom"}
    assert paraphrased.fibre("cat") == {"e:(lynx,noir)", "e:(tiger,noir)"}
    assert report.new_morphisms == ("cat→black", "cat→feline")
    # the grown language's table, glued on its own, is its meaning base's reversed
    base = paraphrased.meaning.base.compose
    assert runs["paraphrasis+read"]() == {(g, f): x for (f, g), x in base.items()}
    for out in (example, merged, paraphrased):
        assert all(out.fibre(f"z{i}") == {f"z{i}a", f"z{i}b"} for i in range(k))


def test_probe_prints_one_row_per_padding(capsys):
    main(["0", "40"])
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["K", "example", "merged", "paraphrasis", "paraphrasis+read"]
    assert [row.split()[0] for row in rows[1:]] == ["0", "40"]
