"""Acceptance suite.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
Random instances are drawn from seeded generators so runs are
reproducible.
"""

import copy
import itertools
import json
import random
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from collage_oracle import normalize_word, word_parts
from genlib import (
    free_category_by_paths,
    functor_on_free,
    hom,
    idempotent_functor,
    iso_functor,
    random_base,
    random_fibres,
    random_functor_between,
    random_presheaf,
)
from reference import (
    component_presheaf,
    compose_functors,
    comprehensive_factorization,
    dense,
    discrete_quiver,
    is_discrete_fibration,
    iso_over_base,
    reduce,
    replay,
    restriction_along_embedding,
    to_presheaf,
)
from fiblex.collage import fp_collage, free_category
from fiblex.errors import IdentifierClash
from fiblex.fincat import (
    CatFunctor,
    FinCategory,
    SetFunctor,
    compose_table,
    discrete_category,
    natural_iso_check,
    opposite,
    quiver_from_edges,
    set_limit,
    validate_category,
)
from fiblex.fibration import grothendieck
from fiblex.jsonio import canonical_dumps
from fiblex.pregroup import (
    Lexicon,
    language_category_from_lexicon,
    parse_type,
    type_order,
)
from fiblex.scenario import load_scenario, run_events, run_scenario
from fiblex.speaker import (
    Speaker,
    acquire_by_example,
    acquire_by_example_merged,
    tautological_explanation,
    validate_explanation,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _load(name):
    return load_scenario(json.loads((SCENARIOS / name).read_text()))


# --- 1. equivalence roundtrip ----------------------------------------------------


def test_c1_equivalence_roundtrip():
    rng = random.Random(101)
    start = time.monotonic()
    n = nontrivial = 0
    while n < 200:
        base, paths = random_base(rng, max_morphisms=10)
        fun = random_presheaf(rng, base, paths)
        fib = grothendieck(fun)
        again = to_presheaf(fib)
        if natural_iso_check(again, fun) is None:
            _verdict("C1 equivalence-roundtrip", False, f"presheaf side failed at {n}")
        if iso_over_base(fib, grothendieck(again)) is None:
            _verdict("C1 equivalence-roundtrip", False, f"fibration side failed at {n}")
        if fib.total.objects:
            nontrivial += 1
        n += 1
    elapsed = time.monotonic() - start
    if nontrivial < 100:
        _verdict("C1 equivalence-roundtrip", False, "instances are mostly degenerate")
    _verdict(
        "C1 equivalence-roundtrip",
        elapsed < 60.0,
        f"(200 instances both ways, {nontrivial} nontrivial, {elapsed:.1f}s)",
    )


# --- 2. unique lifting soundness ---------------------------------------------------


def _duplicate_lift(fib, rng):
    total = fib.total
    ids = total.identities()
    candidates = total.non_identities() or sorted(total.morphisms)
    m = rng.choice(candidates)
    twin = m + "#dup"
    src = {**total.src, twin: total.src[m]}
    tgt = {**total.tgt, twin: total.tgt[m]}
    compose = dict(total.compose)
    for (g, f), gf in total.compose.items():
        if f == m:
            compose[(g, twin)] = gf
        if g == m:
            compose[(twin, f)] = gf
    if (m, m) in total.compose:
        compose[(twin, twin)] = total.compose[(m, m)]
    compose[(total.identity[tgt[twin]], twin)] = twin
    compose[(twin, total.identity[src[twin]])] = twin
    perturbed = FinCategory(
        objects=total.objects,
        morphisms=total.morphisms | {twin},
        src=src,
        tgt=tgt,
        identity=total.identity,
        compose=compose,
    )
    from fiblex.fincat import CatFunctor

    proj = CatFunctor(
        perturbed, fib.base, dict(fib.proj.omap), {**fib.proj.mmap, twin: fib.proj.mmap[m]}
    )
    return proj


def _delete_lift(fib, paths):
    total = fib.total
    over_edge = [m for m in total.non_identities() if len(paths[fib.proj.mmap[m]]) == 1]
    if not over_edge:
        return None
    m = sorted(over_edge)[0]
    compose = {
        pair: gf for pair, gf in total.compose.items() if m not in pair
    }
    if any(gf == m for gf in compose.values()):
        return None  # removal would break closure; skip this instance
    perturbed = FinCategory(
        objects=total.objects,
        morphisms=total.morphisms - {m},
        src={k: v for k, v in total.src.items() if k != m},
        tgt={k: v for k, v in total.tgt.items() if k != m},
        identity=total.identity,
        compose=compose,
    )
    from fiblex.fincat import CatFunctor

    proj = CatFunctor(
        perturbed, fib.base, dict(fib.proj.omap),
        {k: v for k, v in fib.proj.mmap.items() if k != m},
    )
    return proj


def test_c2_unique_lifting_soundness():
    rng = random.Random(202)
    sound = perturbed = 0
    while sound < 200 or perturbed < 200:
        base, paths = random_base(rng, max_morphisms=10)
        fib = grothendieck(random_presheaf(rng, base, paths))
        check = is_discrete_fibration(fib.proj)
        if not check.ok:
            _verdict("C2 unique-lifting", False, "a built fibration failed the check")
        sound += 1

        if not fib.total.morphisms:
            continue  # empty total category: nothing to perturb
        mutant = _delete_lift(fib, paths) if rng.random() < 0.5 else None
        if mutant is None:
            mutant = _duplicate_lift(fib, rng)
        if validate_category(mutant.dom) != []:
            _verdict("C2 unique-lifting", False, "perturbed total category is invalid")
        broken = is_discrete_fibration(mutant)
        if broken.ok or not broken.failures:
            _verdict("C2 unique-lifting", False, "perturbation was not detected")
        e, f, lifts = broken.failures[0]
        if len(lifts) == 1:
            _verdict("C2 unique-lifting", False, "counterexample has exactly one lift")
        perturbed += 1
    _verdict("C2 unique-lifting", True, f"({sound} sound, {perturbed} perturbed)")


# --- 3. factorization --------------------------------------------------------------


def test_c3_comprehensive_factorization():
    rng = random.Random(303)
    exact = 0
    for _ in range(200):
        dom, _ = random_base(rng, max_morphisms=10)
        cod, _ = random_base(rng, max_morphisms=10)
        fun = random_functor_between(rng, dom, cod)
        fact = comprehensive_factorization(fun)
        composite = compose_functors(fact.fibration.proj, fact.first)
        if composite.omap != fun.omap or composite.mmap != fun.mmap:
            _verdict("C3 factorization", False, "composite differs from the input")
        if not is_discrete_fibration(fact.fibration.proj).ok:
            _verdict("C3 factorization", False, "second factor is not a fibration")
        exact += 1
    idempotent = 0
    for _ in range(50):
        base, paths = random_base(rng)
        fib = grothendieck(random_presheaf(rng, base, paths))
        fact = comprehensive_factorization(fib.proj)
        if iso_over_base(fib, fact.fibration) is None:
            _verdict("C3 factorization", False, "factorizing a fibration lost its shape")
        idempotent += 1
    _verdict("C3 factorization", True, f"({exact} functors, {idempotent} fibrations)")


# --- 4. acquisition by example vs brute force ----------------------------------------


def _oracle_acquisition(learner, word, witnesses, event_id):
    """Explicit comma categories + union-find components, renamed by the
    same contract the engine promises; written independently here."""
    lang = learner.language
    fib = learner.fibration
    objs = sorted(fib.total.objects) + list(witnesses)
    omap = {t: fib.proj.omap[t] for t in fib.total.objects}
    omap.update({s: word for s in witnesses})
    morphs = [
        (fib.total.src[m], fib.total.tgt[m], fib.proj.mmap[m])
        for m in sorted(fib.total.morphisms)
    ]

    def decode(d):
        return d if d in witnesses else fib.pairs[d][1]

    comma = {}
    blocks = {}
    for anchor in sorted(lang.objects):
        pairs = {}
        for d in objs:
            for f in hom(lang, anchor, omap[d]):
                pairs[f"({d},{f})"] = (d, f)
        parent = {c: c for c in pairs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for d1, d2, img in morphs:
            for f in hom(lang, anchor, omap[d1]):
                a, b = find(f"({d1},{f})"), find(f"({d2},{lang.compose[(img, f)]})")
                if a != b:
                    parent[a] = b
        rep = {}
        for c in pairs:
            r = find(c)
            rep.setdefault(r, c)
            if c < rep[r]:
                rep[r] = c
        blocks[anchor] = {c: rep[find(c)] for c in pairs}
        comma[anchor] = pairs

    rename = {}
    value = {}
    for anchor in sorted(lang.objects):
        members = {}
        for c, r in blocks[anchor].items():
            members.setdefault(r, []).append(c)
        used = set()
        names = set()
        for r in sorted(members):
            anchors = sorted(
                comma[anchor][c][0]
                for c in members[r]
                if comma[anchor][c][1] == lang.identity[anchor]
            )
            name = decode(anchors[0]) if anchors else f"{event_id}:{r}"
            if name in used:
                name = f"{event_id}:{r}"
            used.add(name)
            rename[r] = name
            names.add(name)
        value[anchor] = frozenset(names)

    action = {}
    for f in lang.morphisms:
        s, t = lang.src[f], lang.tgt[f]
        graph = {}
        for r in {blocks[t][c] for c in blocks[t]}:
            d, g = comma[t][r]
            graph[rename[r]] = rename[blocks[s][f"({d},{lang.compose[(g, f)]})"]]
        action[f] = graph
    return SetFunctor(base=opposite(lang), value=value, action=action)


def _rename_components(presheaf, comma_pairs, components, language, decode, event_id):
    """Name each component after its least identity anchor (decoded back to
    an element), else ``event:rep``; a name already taken in its fibre
    falls back to ``event:rep``, which can give two components one name.
    The instances compared against it never take that fallback."""
    rename = {}
    for obj in sorted(language.objects):
        ident = language.identity[obj]
        member_of = {}
        for cid, rep in components[obj].items():
            member_of.setdefault(rep, []).append(cid)
        used = set()
        for rep in sorted(member_of):
            anchors = sorted(
                comma_pairs[obj][cid][0]
                for cid in member_of[rep]
                if comma_pairs[obj][cid][1] == ident
            )
            name = decode(anchors[0]) if anchors else f"{event_id}:{rep}"
            if name in used:
                name = f"{event_id}:{rep}"
            used.add(name)
            rename[rep] = name
    value = {o: frozenset(rename[r] for r in presheaf.value[o]) for o in presheaf.value}
    action = {
        m: {rename[x]: rename[y] for x, y in graph.items()}
        for m, graph in presheaf.action.items()
    }
    return SetFunctor(base=presheaf.base, value=value, action=action)


def _factorized_example(learner, word, witnesses, event_id):
    """Acquisition by example as the factorize-and-rename construction:
    the witnesses join the learner's category of elements as isolated
    objects over the word, and the comprehensive factorization of that
    projection is renamed back to elements."""
    fib, lang = learner.fibration, learner.language
    total = fib.total
    if set(witnesses) & set(total.objects):
        raise IdentifierClash("witness ids already present")
    witness_ids = {s: f"id_{s}" for s in witnesses}
    if set(witness_ids.values()) & set(total.morphisms):
        raise IdentifierClash("witness identity ids collide with total morphisms")
    domain = FinCategory(
        objects=total.objects | frozenset(witnesses),
        morphisms=total.morphisms | frozenset(witness_ids.values()),
        src={**total.src, **{i: s for s, i in witness_ids.items()}},
        tgt={**total.tgt, **{i: s for s, i in witness_ids.items()}},
        identity={**total.identity, **witness_ids},
        compose={**total.compose, **{(i, i): i for i in witness_ids.values()}},
    )
    to_language = CatFunctor(
        dom=domain,
        cod=lang,
        omap={**fib.proj.omap, **{s: word for s in witnesses}},
        mmap={**fib.proj.mmap, **{i: lang.identity[word] for i in witness_ids.values()}},
    )
    fact = comprehensive_factorization(to_language)

    def decode(d):
        return d if d in witness_ids else fib.pairs[d][1]

    return _rename_components(
        fact.presheaf, fact.comma_pairs, fact.components, lang, decode, event_id
    )


def _factorized_example_merged(learner, word, witnesses, glue, event_id):
    """Merged acquisition as the factorize-and-rename construction: total
    objects over the word collapse onto their glued witnesses before the
    component presheaf is taken."""
    if not learner.fibre(word):
        return _factorized_example(learner, word, witnesses, event_id)
    fib, lang = learner.fibration, learner.language
    total = fib.total
    merged = {}
    for t in total.objects:
        under, element = fib.pairs[t]
        merged[t] = glue[element] if under == word else t
    if {t for t in total.objects if merged[t] == t} & set(witnesses):
        raise IdentifierClash("witness ids already present")
    omap = {m: word if m in witnesses else fib.proj.omap[t] for t, m in merged.items()}
    omap.update({s: word for s in witnesses})
    gens = [
        (merged[total.src[m]], merged[total.tgt[m]], fib.proj.mmap[m])
        for m in total.non_identities()
    ]
    objects = sorted(set(merged.values()) | set(witnesses))
    presheaf, comma_pairs, components = component_presheaf(lang, objects, omap, gens)

    def decode(d):
        return d if d in witnesses else fib.pairs[d][1]

    return _rename_components(presheaf, comma_pairs, components, lang, decode, event_id)


def test_c4_example_acquisition_oracle():
    rng = random.Random(404)
    matched = fresh_checked = 0
    while matched < 100:
        base, paths = random_base(rng)
        fun = random_presheaf(rng, base, paths)
        empties = [o for o in sorted(base.objects) if not fun.fibre(o)]
        if not empties:
            continue
        word = rng.choice(empties)
        learner = Speaker(name="q", language=base, meaning=fun)
        k = rng.randint(1, 3)
        witnesses = [f"w{i}" for i in range(k)]
        out, _ = acquire_by_example(learner, word, witnesses, event_id="acq")
        for want in (
            _oracle_acquisition(learner, word, witnesses, "acq"),
            _factorized_example(learner, word, witnesses, "acq"),
        ):
            if out.meaning.value != want.value or out.meaning.action != want.action:
                _verdict("C4 example-oracle", False, f"mismatch at instance {matched}")
        matched += 1

        incident = [
            m for m in base.non_identities() if word in (base.src[m], base.tgt[m])
        ]
        if not incident:
            if out.fibre(word) != frozenset(witnesses):
                _verdict("C4 example-oracle", False, "fresh word fibre is not the example")
            for o in base.objects:
                if o != word and out.fibre(o) != learner.fibre(o):
                    _verdict("C4 example-oracle", False, "a fresh acquisition moved another fibre")
            fresh_checked += 1
    _verdict("C4 example-oracle", True, f"(100 instances, {fresh_checked} fresh)")


def test_c4_merged_example_oracle():
    rng = random.Random(405)
    matched = into = out_of = 0
    while matched < 300:
        base, paths = random_base(rng)
        fun = random_presheaf(rng, base, paths)
        full = [o for o in sorted(base.objects) if fun.fibre(o)]
        if not full:
            continue
        word = rng.choice(full)
        learner = Speaker(name="q", language=base, meaning=fun)
        witnesses = [f"w{i}" for i in range(rng.randint(1, 3))]
        glue = {y: rng.choice(witnesses) for y in sorted(fun.value[word])}
        out, _ = acquire_by_example_merged(learner, word, witnesses, glue, event_id="acq")
        want = _factorized_example_merged(learner, word, witnesses, glue, "acq")
        if out.meaning.value != want.value or out.meaning.action != want.action:
            _verdict("C4 merged-example-oracle", False, f"mismatch at instance {matched}")
        arrows = base.non_identities()
        into += any(base.tgt[m] == word for m in arrows)
        out_of += any(base.src[m] == word for m in arrows)
        matched += 1
    if into < 30 or out_of < 30:
        _verdict("C4 merged-example-oracle", False, "too few words with incident arrows")
    _verdict(
        "C4 merged-example-oracle",
        True,
        f"(300 instances, {into} with arrows into the word, {out_of} out of it)",
    )


def _idempotent_language():
    """``a: A → W``, an idempotent ``e: W → W`` and ``b: W → B``, with
    every composite named by its letters: a non-free language."""
    letters = {"a": ("A", "W"), "e": ("W", "W"), "b": ("W", "B")}
    words = {"": None, "a": "A", "ea": "A", "ba": "A", "bea": "A", "e": "W", "b": "W", "be": "W"}

    def name(word, obj):
        return word or f"id_{obj}"

    src, tgt, by_name = {}, {}, {}
    for obj in "AWB":
        by_name[name("", obj)] = ("", obj)
    for word, start in words.items():
        if word:
            by_name[word] = (word, start)
    for m, (word, start) in by_name.items():
        src[m] = start
        tgt[m] = letters[word[0]][1] if word else start

    def glue(g, f):
        word = (by_name[g][0] + by_name[f][0]).replace("ee", "e")
        return name(word, src[f])

    return FinCategory(
        objects={"A", "W", "B"},
        morphisms=frozenset(by_name),
        src=src,
        tgt=tgt,
        identity={o: f"id_{o}" for o in "AWB"},
        compose=compose_table(src, tgt, glue),
    )


def _idempotent_presheaf(rng, lang, sizes):
    """A random Set-valued functor on the opposite of ``_idempotent_language``:
    F(e) a random idempotent, F(a) and F(b) random, composites by letters."""
    value = {o: [f"{o.lower()}{i}" for i in range(sizes[o])] for o in "AWB"}
    fixed = rng.sample(value["W"], rng.randint(1, len(value["W"]))) if value["W"] else []
    act = {
        "e": {y: y if y in fixed else rng.choice(fixed) for y in value["W"]},
        "a": {y: rng.choice(value["A"]) for y in value["W"]},
        "b": {z: rng.choice(value["W"]) for z in value["B"]},
    }
    action = {}
    for m in lang.morphisms:
        graph = {x: x for x in value[lang.tgt[m]]}
        for letter in "" if lang.is_identity(m) else m:
            graph = {x: act[letter][y] for x, y in graph.items()}
        action[m] = graph
    return SetFunctor(base=opposite(lang), value=value, action=action)


def test_c4_example_over_an_idempotent():
    lang = _idempotent_language()
    if validate_category(lang):
        _verdict("C4 idempotent-word", False, f"bad language: {validate_category(lang)[0]}")
    rng = random.Random(406)
    plain = merged = 0
    for _ in range(150):
        sizes = {"A": rng.randint(1, 3), "W": rng.randint(0, 3), "B": 0}
        if sizes["W"]:
            sizes["B"] = rng.randint(0, 2)
        learner = Speaker("q", lang, _idempotent_presheaf(rng, lang, sizes))
        witnesses = [f"w{i}" for i in range(rng.randint(1, 3))]
        glue = {y: rng.choice(witnesses) for y in sorted(learner.fibre("W"))}
        out, _ = acquire_by_example_merged(learner, "W", witnesses, glue, event_id="acq")
        want = _factorized_example_merged(learner, "W", witnesses, glue, "acq")
        if out.meaning.value != want.value or out.meaning.action != want.action:
            _verdict("C4 idempotent-word", False, f"mismatch with glue {glue}")
        if glue:
            merged += 1
        else:
            plain += 1
    _verdict("C4 idempotent-word", True, f"({plain} plain, {merged} merged)")


# names with the delimiters of generated identifiers
ADVERSARIAL = st.one_of(
    st.sampled_from(["a", "b", "a,b", "(a)", "a@b", "a:b", "a→b", "b∘a"]),
    st.text(alphabet="ab,()@:→∘", min_size=1, max_size=3),
)


def _generated(parts):
    """Names an event ``ev`` generates for pairs of one of ``parts`` and an
    arrow of ``_idempotent_language`` into W."""
    return st.builds(lambda s, f: f"ev:({s},{f})", parts, st.sampled_from(["a", "ea", "e"]))


@st.composite
def adversarial_examples(draw):
    """A speaker on ``_idempotent_language`` whose elements, like the
    witnesses, have adversarial names, plus witnesses and a glue map."""
    lang = _idempotent_language()
    rng = draw(st.randoms(use_true_random=False))
    sizes = {"A": rng.randint(1, 3), "W": rng.randint(0, 3), "B": 0}
    if sizes["W"]:
        sizes["B"] = rng.randint(0, 2)
    fun = _idempotent_presheaf(rng, lang, sizes)
    witnesses = draw(st.lists(st.one_of(ADVERSARIAL, _generated(ADVERSARIAL)),
                              min_size=1, max_size=3, unique=True))
    names = st.one_of(ADVERSARIAL, _generated(st.sampled_from(witnesses)))
    rename = {
        o: dict(zip(sorted(fun.fibre(o)),
                    draw(st.lists(names, min_size=sizes[o], max_size=sizes[o], unique=True))))
        for o in "AWB"
    }
    base = fun.base
    value = {o: [rename[o][x] for x in fun.fibre(o)] for o in "AWB"}
    action = {
        m: {rename[base.src[m]][x]: rename[base.tgt[m]][y] for x, y in graph.items()}
        for m, graph in fun.action.items()
    }
    learner = Speaker("q", lang, SetFunctor(base=base, value=value, action=action))
    glue = {y: draw(st.sampled_from(witnesses)) for y in sorted(value["W"])}
    return learner, witnesses, glue


def _generated_names_clash(learner, word, witnesses, glue, event_id):
    """Whether two members of some fibre of the example's pushout get one
    name, re-derived naively: the classes of F(L) ⊔ S×Hom(L, word) merged
    one link at a time, each named by the least identity anchor, else
    ``event:(s,f)``."""
    lang, fun = learner.language, learner.meaning
    ident = lang.identity[word]
    for obj in sorted(lang.objects):
        arrows = hom(lang, obj, word)
        classes = [{x} for x in fun.fibre(obj)] + [{(s, f)} for f in arrows for s in witnesses]
        for f in arrows:
            for y in fun.fibre(word):
                a = next(c for c in classes if fun.action[f][y] in c)
                b = next(c for c in classes if (glue[y], f) in c)
                if a is not b:
                    a |= b
                    classes = [c for c in classes if c is not b]
        names = []
        for c in classes:
            if obj == word:
                anchors = sorted(m[0] for m in c if isinstance(m, tuple) and m[1] == ident)
            else:
                anchors = [m for _, m in sorted((f"{m}@{obj}", m) for m in c if isinstance(m, str))]
            if anchors:
                names.append(anchors[0])
            else:
                (s, f), = c
                names.append(f"{event_id}:({s},{f})")
        if len(set(names)) < len(names):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(adversarial_examples())
def test_c4_example_with_adversarial_names(instance):
    # the engine agrees with the factorize-and-rename oracle, or refuses
    # exactly when two members would share a generated name; either way
    # the learner, whose untouched graphs the result shares, is unchanged
    learner, witnesses, glue = instance
    snapshot = copy.deepcopy((learner.meaning.value, learner.meaning.action))
    try:
        if glue:
            out, _ = acquire_by_example_merged(learner, "W", witnesses, glue, event_id="ev")
        else:
            out, _ = acquire_by_example(learner, "W", witnesses, event_id="ev")
    except IdentifierClash:
        assert _generated_names_clash(learner, "W", witnesses, glue, "ev")
    else:
        assert not _generated_names_clash(learner, "W", witnesses, glue, "ev")
        want = _factorized_example_merged(learner, "W", witnesses, glue, "ev")
        assert out.meaning.value == want.value
        assert out.meaning.action == want.action
    assert (learner.meaning.value, learner.meaning.action) == snapshot


# candidate edges of a free acyclic language around the word W: arrows into
# W from its down-set C, A, B (parallel ones included) and arrows out of it to V
_EXAMPLE_EDGES = [("c", "C", "A"), ("a", "A", "W"), ("p", "A", "B"), ("b", "B", "W"),
                  ("q", "B", "W"), ("d", "C", "W"), ("v", "W", "V"), ("u", "B", "V")]


def _first_clash(learner, word, witnesses, glue, event_id):
    """The message of the ``IdentifierClash`` an example raises, or None,
    re-derived naively: over each object in sorted order, the classes of
    F(L) ⊔ S×Hom(L, word) merged one link at a time and named by their
    least identity anchor; then the unglued pairs ``(s, f)``, arrow by
    arrow and witness by witness, until one's name is taken by a class or
    by an earlier pair."""
    lang, fun = learner.language, learner.meaning
    ident = lang.identity[word]
    witnesses = sorted(witnesses)
    for obj in sorted(lang.objects):
        arrows = hom(lang, obj, word)
        classes = [{x} for x in fun.fibre(obj)] + [{(s, f)} for f in arrows for s in witnesses]
        for f in arrows:
            for y in fun.fibre(word):
                a = next(c for c in classes if fun.action[f][y] in c)
                b = next(c for c in classes if (glue[y], f) in c)
                if a is not b:
                    a |= b
                    classes = [c for c in classes if c is not b]
        taken = set()
        for c in classes:
            if obj == word and len(c) > 1:
                taken.add(min(m[0] for m in c if isinstance(m, tuple) and m[1] == ident))
            elif any(isinstance(m, str) for m in c):
                taken.add(min((m for m in c if isinstance(m, str)), key=lambda m: f"{m}@{obj}"))

        def origin(member):
            if isinstance(member, tuple):
                s, f = member
                return f"the witness {s}" if f == ident else f"the pair ({s}, {f})"
            return f"the witness {member}" if obj == word else f"the element {member}"

        named = {}
        for f in arrows:
            for s in witnesses:
                if any((s, f) in c and len(c) > 1 for c in classes):
                    continue
                name = s if f == ident else f"{event_id}:({s},{f})"
                if name in taken:
                    return (f"{name} over {obj} would name both"
                            f" {origin(named.get(name, name))} and {origin((s, f))}")
                taken.add(name)
                named[name] = (s, f)
    return None


@st.composite
def example_runs(draw):
    """Learners on one free acyclic language, whose element names, like
    the witnesses, use the delimiters of generated names and may be
    generated names themselves, and 2-4 examples over W by them: each
    event a learner, its witnesses and its glue choices."""
    edges = [e for e in _EXAMPLE_EDGES if draw(st.booleans())]
    lang = free_category(quiver_from_edges(["A", "B", "C", "V", "W"], edges))
    pool = draw(st.lists(st.text(alphabet="ab,():", min_size=1, max_size=3),
                         min_size=1, max_size=3, unique=True))
    into_w = [f for f in sorted(lang.morphisms) if lang.tgt[f] == "W"]
    names = st.one_of(st.text(alphabet="ab,():", min_size=1, max_size=3),
                      st.builds(lambda i, s, f: f"ev{i}:({s},{f})", st.integers(0, 3),
                                st.sampled_from(pool), st.sampled_from(into_w)))
    rng = draw(st.randoms(use_true_random=False))
    learners = []
    for _ in range(draw(st.integers(1, 3))):
        sizes = {o: draw(st.integers(1, 2)) for o in "ABC"}
        sizes["W"] = draw(st.integers(0, 2))
        sizes["V"] = draw(st.integers(0, 2)) if sizes["W"] else 0  # v: W → V
        value = {o: draw(st.lists(names, min_size=n, max_size=n, unique=True))
                 for o, n in sizes.items()}
        edge_act = {e: {x: rng.choice(value[s]) for x in value[t]} for e, s, t in edges}
        action = {}
        for m, path in lang.paths.items():
            graph = {x: x for x in value[lang.tgt[m]]}
            for e in reversed(path):  # contravariant: the last edge of the path acts first
                graph = {x: edge_act[e][y] for x, y in graph.items()}
            action[m] = graph
        learners.append(Speaker("q", lang, SetFunctor(opposite(lang), value, action)))
    events = [(draw(st.integers(0, len(learners) - 1)),
               draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)),
               draw(st.randoms(use_true_random=False)))
              for _ in range(draw(st.integers(2, 4)))]
    return lang, learners, events


@settings(max_examples=300, deadline=None)
@given(example_runs())
def test_c4_examples_planned_once_per_language_and_word_match_the_oracle(run):
    # examples and merged examples by different learners on one language share
    # the plan of W, others are chained on one learner; each result equals the
    # factorize-and-rename oracle, or the event raises the clash it predicts
    lang, learners, events = run
    plan = None
    for i, (who, witnesses, rng) in enumerate(events):
        learner, eid = learners[who], f"ev{i}"
        glue = {y: rng.choice(witnesses) for y in sorted(learner.fibre("W"))}
        expected = _first_clash(learner, "W", witnesses, glue, eid)
        try:
            if glue:
                out, _ = acquire_by_example_merged(learner, "W", witnesses, glue, event_id=eid)
            else:
                out, _ = acquire_by_example(learner, "W", witnesses, event_id=eid)
        except IdentifierClash as err:
            assert str(err) == expected
        else:
            assert expected is None
            want = _factorized_example_merged(learner, "W", witnesses, glue, eid)
            assert out.meaning.value == want.value
            assert out.meaning.action == want.action
            learners[who] = out
        plan = plan or lang._example_plans["W"]
        assert lang._example_plans == {"W": plan} and lang._example_plans["W"] is plan


# --- 5. limits ------------------------------------------------------------------------


def _oracle_limit(fun):
    """Backtracking extension over objects, independent of the
    product-and-filter route."""
    fun = dense(fun)
    order = sorted(fun.base.objects)
    index = {o: i for i, o in enumerate(order)}
    morphs = [
        (fun.base.src[m], fun.base.tgt[m], fun.action[m])
        for m in fun.base.non_identities()
    ]
    out = []

    def extend(i, partial):
        if i == len(order):
            out.append(tuple(partial))
            return
        for x in sorted(fun.value[order[i]]):
            partial.append(x)
            ok = True
            for s, t, act in morphs:
                si, ti = index[s], index[t]
                if si < len(partial) and ti < len(partial) and act[partial[si]] != partial[ti]:
                    ok = False
                    break
            if ok:
                extend(i + 1, partial)
            partial.pop()

    extend(0, [])
    return frozenset(out)


def _product_limit(fun):
    """Product and filter: every family in the full product of the fibres
    that commutes with every non-identity action."""
    fun = dense(fun)
    order = tuple(sorted(fun.base.objects))
    index = {o: i for i, o in enumerate(order)}
    checks = [
        (index[fun.base.src[m]], index[fun.base.tgt[m]], fun.action[m])
        for m in fun.base.non_identities()
    ]
    pools = [sorted(fun.value[o]) for o in order]
    return frozenset(
        tup
        for tup in itertools.product(*pools)
        if all(act[tup[i]] == tup[j] for i, j, act in checks)
    )


def test_c5_limits_and_tautologies():
    rng = random.Random(505)
    diagrams = 0
    for _ in range(150):
        base, paths = random_base(rng)
        fun = random_presheaf(rng, base, paths)
        sizes = 1
        for o in base.objects:
            sizes *= max(1, len(fun.fibre(o)))
        if sizes > 10 ** 6:
            continue
        cone = set_limit(fun)
        if cone.apex != _oracle_limit(fun):
            _verdict("C5 limit-oracle", False, "apex differs from the oracle")
        diagrams += 1

    tautologies = 0
    for _ in range(50):
        base, paths = random_base(rng)
        fun = random_presheaf(rng, base, paths)
        speaker = Speaker(name="p", language=base, meaning=fun)
        for word in sorted(base.objects):
            check = validate_explanation(speaker, tautological_explanation(speaker, word))
            if not check.exact or not check.valid:
                _verdict("C5 limit-oracle", False, f"tautology not exact at {word}")
            tautologies += 1
    _verdict("C5 limit-oracle", True, f"({diagrams} diagrams, {tautologies} tautologies)")


def _free_piece(rng, vertices, edges):
    """A random functor on the free category of an acyclic quiver."""
    value = random_fibres(rng, vertices, [(s, t) for _, s, t in edges])
    edge_act = {e: {x: rng.choice(sorted(value[t])) for x in value[s]} for e, s, t in edges}
    return functor_on_free(quiver_from_edges(vertices, edges), value, edge_act)


def _genlib_piece(rng):
    base, paths = random_base(rng, max_vertices=3)
    return random_presheaf(rng, base, paths)


def _cospan_piece(rng):
    """Several roots meeting at one object."""
    roots = [f"r{i}" for i in range(rng.randint(2, 4))]
    return _free_piece(rng, roots + ["m"], [(f"s{r}", r, "m") for r in roots])


def _zigzag_piece(rng):
    """Roots r0 -> m0 <- r1 -> m1 <- r2: each join meets on another object."""
    k = rng.randint(2, 3)
    vertices = [f"r{i}" for i in range(k)] + [f"m{i}" for i in range(k - 1)]
    edges = [(f"u{i}", f"r{i}", f"m{i}") for i in range(k - 1)]
    edges += [(f"v{i}", f"r{i + 1}", f"m{i}") for i in range(k - 1)]
    return _free_piece(rng, vertices, edges)


def _unconstrained_piece(rng):
    """Actions drawn with no regard to composition: the limit must still
    check every arrow, composites included."""
    base, _ = random_base(rng, max_vertices=3)
    base = opposite(base)
    value = {o: frozenset(f"{o}x{i}" for i in range(rng.randint(1, 3))) for o in base.objects}
    action = {}
    for m in base.morphisms:
        dom, cod = sorted(value[base.src[m]]), sorted(value[base.tgt[m]])
        if base.is_identity(m):
            action[m] = {x: x for x in dom}
        else:
            action[m] = {x: rng.choice(cod) for x in dom}
    return SetFunctor(base=base, value=value, action=action)


LIMIT_PIECES = (
    _genlib_piece, _cospan_piece, _zigzag_piece, idempotent_functor, iso_functor,
    _unconstrained_piece,
)


def _disjoint_union(funs):
    """The coproduct of Set-valued functors' bases, with each functor on
    its summand; ids are prefixed by the summand's position."""
    objects, src, tgt, identity, compose, value, action = set(), {}, {}, {}, {}, {}, {}
    for i, fun in enumerate(funs):
        base, p = fun.base, f"p{i}."
        objects |= {p + o for o in base.objects}
        src.update({p + m: p + o for m, o in base.src.items()})
        tgt.update({p + m: p + o for m, o in base.tgt.items()})
        identity.update({p + o: p + m for o, m in base.identity.items()})
        compose.update({(p + g, p + f): p + gf for (g, f), gf in base.compose.items()})
        value.update({p + o: v for o, v in fun.value.items()})
        action.update({p + m: g for m, g in fun.action.items()})
    cat = FinCategory(objects, set(src), src, tgt, identity, compose)
    return SetFunctor(base=cat, value=value, action=action)


@st.composite
def limit_instances(draw):
    rng = draw(st.randoms(use_true_random=False))
    pieces = draw(st.lists(st.sampled_from(LIMIT_PIECES), min_size=1, max_size=2))
    return _disjoint_union([piece(rng) for piece in pieces])


@settings(max_examples=300, deadline=None)
@given(limit_instances())
def test_c5_limit_matches_both_oracles(fun):
    assert validate_category(fun.base) == []
    cone = set_limit(fun)
    apex = _product_limit(fun)
    assert apex == _oracle_limit(fun)
    assert cone.apex == apex
    assert cone.order == tuple(sorted(fun.base.objects))
    assert all(len(t) == len(cone.order) for t in apex)  # one component, one leg, per object
    assert (cone.witness is None) == bool(apex)


@st.composite
def presheaves_over_one_base(draw):
    """One base drawn as ``limit_instances`` draws it, its functor and 1-3
    more fibres and total actions over that same base object, drawn with
    no regard to composition and with at most one fibre emptied (and what
    must be emptied with it)."""
    fun = draw(limit_instances())
    base, rng = fun.base, draw(st.randoms(use_true_random=False))
    objects, arrows = sorted(base.objects), sorted(base.morphisms)
    funs = [fun]
    for _ in range(draw(st.integers(1, 3))):
        emptied = draw(st.sampled_from([None, *objects]))
        sizes = {o: 0 if o == emptied else rng.randint(1, 3) for o in objects}
        changed = True
        while changed:  # an action into an empty fibre is total only out of an empty one
            changed = False
            for m in arrows:
                if sizes[base.src[m]] and not sizes[base.tgt[m]]:
                    sizes[base.src[m]], changed = 0, True
        value = {o: frozenset(f"{o}x{i}" for i in range(n)) for o, n in sizes.items()}
        action = {}
        for m in arrows:
            dom, cod = sorted(value[base.src[m]]), sorted(value[base.tgt[m]])
            if base.is_identity(m):
                action[m] = {x: x for x in dom}
            else:
                action[m] = {x: rng.choice(cod) for x in dom}
        funs.append(SetFunctor(base=base, value=value, action=action))
    return funs


@settings(max_examples=150, deadline=None)
@given(presheaves_over_one_base())
def test_c5_a_limit_planned_once_per_base_matches_the_oracle(funs):
    base = funs[0].base
    plans = []
    for fun in funs:
        cone = set_limit(fun)
        plans.append(base.__dict__["_limit_plan"])
        assert cone.apex == _product_limit(fun)
        # the same limit, planned afresh over a copy of the base
        fresh = FinCategory(base.objects, base.morphisms, base.src, base.tgt, base.identity,
                            base.compose, base.closed)
        again = set_limit(SetFunctor(base=fresh, value=fun.value, action=fun.action))
        assert (again.order, again.apex, again.witness) == (cone.order, cone.apex, cone.witness)
    assert all(plan is plans[0] for plan in plans)  # planned once, on the first limit


# --- 6. collage ------------------------------------------------------------------------


def test_c6_collage_laws():
    rng = random.Random(606)

    # empty quiver: the collage is the base itself
    for _ in range(20):
        base, _ = random_base(rng)
        col = fp_collage(base, discrete_quiver(base.objects))
        if col.category != base:
            _verdict("C6 collage", False, "empty-quiver collage differs from the base")

    # discrete base: morphism count matches the free category
    for _ in range(20):
        n = rng.randint(1, 4)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for k in range(rng.randint(0, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            edges.append((f"e{k}", vertices[i], vertices[j]))
        quiver = quiver_from_edges(vertices, edges)
        base = discrete_category(vertices)
        bound = rng.randint(1, 3)
        col = fp_collage(base, quiver, bound=bound)
        free, _ = free_category_by_paths(quiver, bound)
        if len(col.category.morphisms) != len(free.morphisms):
            _verdict("C6 collage", False, "discrete collage count differs from free category")

    # confluence over random bracketings, and closed collages validate
    comparisons = 0
    while comparisons < 10 ** 4:
        base, _ = random_base(rng, max_vertices=3, max_edges=3)
        k = rng.randint(1, 2)
        vertices = sorted(base.objects)
        quiver = quiver_from_edges(
            vertices,
            [
                (f"q{i}", rng.choice(vertices), rng.choice(vertices))
                for i in range(k)
            ],
        )
        try:
            col = fp_collage(base, quiver, bound=2)
        except Exception:
            continue
        if col.closed:
            if validate_category(col.category) != []:
                _verdict("C6 collage", False, "closed collage failed validation")
        comp = col.category.compose
        pairs = sorted(comp)
        if not pairs:
            continue
        for _ in range(min(200, len(pairs) * 4)):
            g, f = pairs[rng.randrange(len(pairs))]
            gf = comp[(g, f)]
            for h in sorted(col.category.morphisms):
                if (h, gf) in comp and (h, g) in comp and (comp[(h, g)], f) in comp:
                    if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                        _verdict("C6 collage", False, "bracketings disagree")
                    comparisons += 1
        # composing through normalize_word agrees with the table
        g, f = pairs[rng.randrange(len(pairs))]
        wf, wg = col.words[f], col.words[g]
        renormalized = normalize_word(base, quiver, word_parts(wf) + word_parts(wg))
        from fiblex.collage import word_id

        if word_id(base, renormalized) != comp[(g, f)]:
            _verdict("C6 collage", False, "normalize_word disagrees with the table")
    _verdict("C6 collage", True, f"({comparisons} bracketing comparisons)")


# --- 7. scenarios -----------------------------------------------------------------------


def test_c7_shipped_scenarios():
    code, report = run_scenario(_load("alice-bob.json"))
    if code != 0:
        _verdict("C7 scenarios", False, f"alice-bob failed: {report['first_failure']}")
    by_id = {e["id"]: e["report"] for e in report["events"]}
    learned = by_id["adopted-a-cat"]
    ok = (
        learned["fibres_after"]["cat"] == 2
        and len(learned["new_morphisms"]) == 3
        and by_id["circular-explanation"]["outcome"] == "no-sense"
    )
    if not ok:
        _verdict("C7 scenarios", False, "alice-bob report does not match the dialogue")

    # teacher untouched and the old language embeds with its meanings
    scenario = _load("alice-bob.json")
    store, _reports = run_events(scenario)
    if store["alice"] != scenario.speakers["alice"]:
        _verdict("C7 scenarios", False, "teacher changed")
    bob0 = scenario.speakers["bob"]
    bob1 = store["bob"]
    restricted = restriction_along_embedding(bob1, bob0.language)
    for o in ("feline", "black", "cursed"):
        if restricted.value[o] != bob0.meaning.value[o]:
            _verdict("C7 scenarios", False, f"meaning over {o} changed")
    for m in bob0.language.morphisms:
        if m == "id_cat":
            continue
        if restricted.action[m] != bob0.meaning.action[m]:
            _verdict("C7 scenarios", False, f"action of {m} changed")

    code, report = run_scenario(_load("evil-cat.json"))
    apex = report["events"][0]["report"]["apex_size"]
    if code != 0 or apex != 4:
        _verdict("C7 scenarios", False, f"evil-cat apex = {apex}")

    code, report = run_scenario(_load("slab.json"))
    slab_fibre = report["events"][0]["report"]["fibres_after"]["slab"]
    if code != 0 or slab_fibre < 1:
        _verdict("C7 scenarios", False, "slab fibre still empty")

    code, _report = run_scenario(_load("look-a-cat.json"))
    if code != 0:
        _verdict("C7 scenarios", False, "look-a-cat failed")
    _verdict("C7 scenarios", True, "(all four shipped scenarios)")


# --- 8. pregroups -----------------------------------------------------------------------


def test_c8_pregroup_backend():
    order = type_order(["n", "s"])
    one = reduce(parse_type("n n^r s"), parse_type("s"), order)
    two = reduce(parse_type("n n^r s n^l n"), parse_type("s"), order)
    none = reduce(parse_type("n n"), parse_type("s"), order)
    ok = one is not None and two is not None and none is None
    if ok:
        ok = replay(parse_type("n n^r s"), one) == parse_type("s")
        ok = ok and replay(parse_type("n n^r s n^l n"), two) == parse_type("s")
    lex = Lexicon(
        order=type_order(["cat", "feline", "s"]),
        entries={"cat": (parse_type("cat"),), "feline": (parse_type("feline"),)},
        sentence=parse_type("s"),
    )
    cat = language_category_from_lexicon(lex, ["cat", "feline"])
    ok = ok and hom(cat, "cat", "feline") == [] and hom(cat, "feline", "cat") == []
    _verdict("C8 pregroup", ok, "(reductions, replay, empty noun homs)")


# --- 9. determinism -----------------------------------------------------------------------


def test_c9_deterministic_reports():
    for name in ("look-a-cat.json", "alice-bob.json", "evil-cat.json", "slab.json"):
        first = canonical_dumps(run_scenario(_load(name))[1])
        second = canonical_dumps(run_scenario(_load(name))[1])
        if first != second:
            _verdict("C9 determinism", False, f"{name} reports differ between runs")
    _verdict("C9 determinism", True, "(four scenarios, byte-identical reports)")
