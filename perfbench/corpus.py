"""The verify-corpus documents, built from the benchmark seed.

Besides the designed documents, the corpus holds large weight-3 documents
built straight from codes with distinct differences, and tampered copies
that each break exactly one named verification rule.  Every length below
is fixed: the seed picks code contents and tamper positions only, so the
verify cost of the corpus, which grows with the declared length, is the
same for every seed.
"""

from __future__ import annotations

import dataclasses
import json

LARGE_N = (10007, 20011, 50021, 100003, 100019)
LARGE_CODES = 3
SMALL_N = 1009
SPECIAL_N = 1013


def distinct_code(lib, rng, n, taken, long_last=False):
    """A canonical weight-3 code whose six table entries are distinct and
    avoid ``taken``; ``long_last`` asks for a last difference above n/2."""
    while True:
        if long_last:
            c = rng.randrange(n // 2 + 1, n - 2)
            a = rng.randrange(1, n - c)
        else:
            a = rng.randrange(1, n // 2)
            c = rng.randrange(1, n - a)
        b = n - a - c
        entries = {a, b, c, n - a, n - b, n - c}
        if b >= 1 and len(entries) == 6 and not entries & taken:
            taken |= entries
            return lib.codes.standardize(lib.codes.Dopr((a, b, c), n))


def _family_document(lib, n, codes, config):
    params = lib.codes.CodeParams(n, 3, 1, 1)
    clique = lib.cliques.make_clique_set(codes, params)
    family = lib.cliques.Family((clique,), 0)
    return lib.document.document_from_family(family, config)


def large_documents(lib, rng, seed):
    docs = []
    for n in LARGE_N:
        taken: set[int] = set()
        codes = [distinct_code(lib, rng, n, taken) for _ in range(LARGE_CODES)]
        docs.append((f"large-{n}", _family_document(lib, n, codes, {"seed": seed})))
    return docs


def _replace_set(doc, k, **changes):
    sets = list(doc.sets)
    sets[k] = dataclasses.replace(sets[k], **changes)
    return dataclasses.replace(doc, sets=tuple(sets))


def _replace_code(doc, k, i, dopr):
    acc, wpr = 0, [0]
    for d in dopr[:-1]:
        acc += d
        wpr.append(acc)
    codes = list(doc.sets[k].codes)
    codes[i] = dataclasses.replace(codes[i], dopr=tuple(dopr), wpr=tuple(wpr))
    return _replace_set(doc, k, codes=tuple(codes))


def _single_set_document(lib, n, lam, codes, lambda_c_stored):
    """A one-set document written field by field, for sets `make_clique_set`
    would refuse to assemble."""
    doc_mod = lib.document
    level_a = max(lib.correlation.autocorr_edop(c).lambda_ax for c in codes)
    doc_set = doc_mod.DocumentSet(
        n=n, w=3, lambda_a=lam, lambda_c=lam,
        bound=lib.correlation.johnson_bound(n, 3, lam),
        verified_lambda_a=level_a, verified_lambda_c=lambda_c_stored,
        codes=tuple(
            doc_mod.DocumentCode(c.dops, lib.codes.wpr_from_dopr(c).positions)
            for c in codes
        ),
    )
    return doc_mod.CodeSetDocument(
        doc_mod.FORMAT_VERSION, doc_mod.TOOL_NAME, doc_mod.TOOL_VERSION, {}, 0,
        (doc_set,),
    )


def tampered_documents(lib, rng, designed, base):
    """(rule, document or raw text) pairs; each breaks only ``rule``.

    ``designed`` maps ladder keys to designed documents; ``base`` is a
    valid three-code document at SMALL_N whose first long-last code sits
    at a known index.  `shared-difference` and `method-agreement` have no
    entry: a shared table entry always lifts the cross correlation too,
    and no edit to a document makes the two correlation routes disagree.
    """
    out = []

    doc = designed["25,3,1,1"]
    out.append(("parameter-consistency",
                _replace_set(doc, rng.randrange(len(doc.sets)), lambda_a=0)))

    doc = designed["31,3,1,1"]
    k = rng.randrange(len(doc.sets))
    i = rng.randrange(len(doc.sets[k].codes))
    code = doc.sets[k].codes[i]
    codes = list(doc.sets[k].codes)
    codes[i] = dataclasses.replace(code, dopr=code.dopr[:-1] + (code.dopr[-1] + 1,))
    out.append(("difference-sum", _replace_set(doc, k, codes=tuple(codes))))

    long_last = next(i for i, c in enumerate(base.sets[0].codes)
                     if 2 * c.dopr[-1] > SMALL_N)
    a, b, c = base.sets[0].codes[long_last].dopr
    out.append(("difference-range", _replace_code(base, 0, long_last, (a + b, 0, c))))

    i = rng.randrange(len(base.sets[0].codes))
    codes = list(base.sets[0].codes)
    wpr = list(codes[i].wpr)
    wpr[1] += 1
    codes[i] = dataclasses.replace(codes[i], wpr=tuple(wpr))
    out.append(("position-consistency", _replace_set(base, 0, codes=tuple(codes))))

    i = rng.randrange(len(base.sets[0].codes))
    dopr = base.sets[0].codes[i].dopr
    r = rng.randrange(1, len(dopr))
    out.append(("canonical-rotation", _replace_code(base, 0, i, dopr[r:] + dopr[:r])))

    a = rng.randrange(2, SPECIAL_N // 4)
    repeated = lib.codes.standardize(lib.codes.Dopr((a, a, SPECIAL_N - 2 * a), SPECIAL_N))
    out.append(("auto-correlation-bound",
                _single_set_document(lib, SPECIAL_N, 1, [repeated], 0)))

    twin = distinct_code(lib, rng, SPECIAL_N, set())
    out.append(("cross-correlation-bound",
                _single_set_document(lib, SPECIAL_N, 2, [twin, twin], 3)))

    doc = designed["31,3,1,1"]
    k = rng.randrange(len(doc.sets))
    out.append(("set-size-bound",
                _replace_set(doc, k, bound=doc.sets[k].bound + rng.randint(1, 3))))

    out.append(("stored-auto-correlation",
                _replace_set(base, 0, verified_lambda_a=base.sets[0].verified_lambda_a + 1)))
    out.append(("stored-cross-correlation",
                _replace_set(base, 0, verified_lambda_c=base.sets[0].verified_lambda_c + 1)))

    doc = designed["13,4,1,1+25,3,1,1"]
    out.append(("family-separation", dataclasses.replace(
        doc, family_interset_lambda=doc.family_interset_lambda + 1)))

    payload = json.loads(lib.document.to_canonical_json(base))
    del payload[rng.choice(sorted(payload))]
    out.append(("document-format", json.dumps(payload, sort_keys=True, indent=2) + "\n"))
    return out


def build(lib, rng, seed, designed):
    """All corpus entries as (label, canonical text, expected failing rule).

    ``designed`` maps each designed ladder key to its document; those are
    valid entries too.
    """
    entries = [(key, lib.document.to_canonical_json(doc), None)
               for key, doc in designed.items()]
    for label, doc in large_documents(lib, rng, seed):
        entries.append((label, lib.document.to_canonical_json(doc), None))

    taken: set[int] = set()
    codes = [distinct_code(lib, rng, SMALL_N, taken, long_last=True)]
    codes += [distinct_code(lib, rng, SMALL_N, taken) for _ in range(2)]
    base = _family_document(lib, SMALL_N, codes, {"seed": seed})
    entries.append((f"small-{SMALL_N}", lib.document.to_canonical_json(base), None))

    for rule, doc in tampered_documents(lib, rng, designed, base):
        text = doc if isinstance(doc, str) else lib.document.to_canonical_json(doc)
        entries.append((f"tampered-{rule}", text, rule))
    return entries
