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


@pytest.mark.parametrize("k", [0, 40])
def test_the_reports_do_not_grow_with_the_padding(k):
    # each lists the fibres its event changed: the word's down-set for an
    # example or a merged example, the word for a paraphrasis
    runs = events(k)
    example, by_example = runs["example"]()
    lang = example.language
    down_set = {lang.src[m] for m in lang.morphisms if lang.tgt[m] == "cat"}
    assert down_set == {"cat"}
    for _, report in (runs["example"](), runs["merged"](), runs["paraphrasis"]()):
        assert set(report.fibres_before) == set(report.fibres_after) == down_set
    assert (by_example.fibres_before, by_example.fibres_after) == ({"cat": 0}, {"cat": 1})


def test_probe_prints_one_row_per_padding(capsys):
    main(["0", "40"])
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["K", "example", "merged", "paraphrasis", "paraphrasis+read"]
    assert [row.split()[0] for row in rows[1:]] == ["0", "40"]
