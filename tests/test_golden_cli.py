"""Golden CLI output: exit code and sha256 of stdout, pinned per invocation.

The criterion-8 invocations plus cases whose output exercises rarely
printed lines: ``tutte`` and ``quantitative`` violations, the lemma's
``kind=boundary`` lines with their running ``count``, the gadget audit
with no subsets to check, with the vertex side's stub credit and with a
credited witness made of two copies that share only their owner, the
ball's credited verdict passing at ``--max-f 5`` and failing at 6, lemma
components listed by least vertex when a search from N(X) would meet them
in another order, finite odd components cut off by |X| = 4 on the open
ball, the (size, lex) least of many tied expansion minimisers, and Tutte
checks with k above the vertex count: certified by a perfect matching on
a closed and an open window, enumerated on a star that has none.  On the
open ball, epsilon = 1 (and the lemma's delta = d) is the largest value
that examines only the X cutting off a finite piece, and epsilon = 3/2
walks every X; a caterpillar with one frontier end has a piece at every
leaf (so many that every X is walked), and a comb of frontier vertices
has three leaf pieces.  The Euler route's walk closes sub-circuits and
resumes from the stack on a 4-regular graph, and starts once per
component on two triangles, which pins the order in which it takes edges.
The gadget route orients a disconnected graph, and a layered run on a cycle enumerates its level 0 check on a closed
window of two components, walking every X in full at --cert-max-x 2 and
searching only the component X touches at 1 (the same report); on
cycle(2000), the amenable control, a three-level run pins every chosen
edge of a run large enough that its allowed-edge tests dominate.  An open
ball beside closed components on shuffled ids has a missed component whose
least vertex falls between the ball's pieces, so the lemma's ``count=``
indices pin the order in which reused and searched components are listed.
Any change to verdicts, witnesses, counts or formatting shows up here as a
changed digest.
"""

import hashlib

import pytest

from helpers import shuffled_union
from tuttelab import (
    Graph,
    GroupSpec,
    Window,
    cayley_ball,
    fixture,
    format_graph,
    format_window,
    grandparent_window,
)
from tuttelab.cli import main as cli_main

INPUTS = {
    "ball2": lambda: format_window(cayley_ball(GroupSpec.free(2), 2)),
    "cycle12": lambda: format_graph(fixture("cycle(12)")),
    "regular": lambda: format_graph(fixture("random_regular(12,4,9)")),
    "star5": lambda: format_graph(fixture("star(5)")),
    "complete4": lambda: format_graph(fixture("complete(4)")),
    "triangles": lambda: format_graph(
        Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    ),
    "empty3": lambda: format_graph(Graph.empty(3)),
    "grandparent3": lambda: format_window(grandparent_window(3)),
    "cycle8": lambda: format_graph(fixture("cycle(8)")),
    "cycle40": lambda: format_graph(fixture("cycle(40)")),
    "cycle2000": lambda: format_graph(fixture("cycle(2000)")),
    # 3-regular with one frontier vertex (9): a K4 minus the edge 5-6 hangs
    # off 8, and a K4 on {2,3,4,7} is a finite component of the whole graph.
    "twopieces": lambda: format_window(Window(
        Graph.from_edges(10, [(0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (5, 8),
                              (6, 8), (8, 9), (2, 3), (2, 4), (2, 7), (3, 4),
                              (3, 7), (4, 7)]),
        frozenset(range(9)), (0,) * 9 + (2,))),
    # A triangle and an edgeless frontier vertex with 4 stubs, whose two
    # copy nodes share no gadget neighbor.
    "isolated": lambda: "4 3\n0 1\n0 2\n1 2\n# interior: 0 1 2\n# stubs: 3 4\n",
    # A caterpillar: spine 0-1-2-3-4, two leaves on each spine vertex, and
    # one frontier end (0, with 2 stubs).  Every leaf is a piece with a
    # one-vertex neighbourhood.
    "caterpillar": lambda: format_window(Window(
        Graph.from_edges(15, [(0, 1), (1, 2), (2, 3), (3, 4)]
                         + [(s, 5 + 2 * s + i) for s in range(5) for i in (0, 1)]),
        frozenset(range(1, 15)), (2,) + (0,) * 14)),
    # A comb: a frontier path 0-...-9 with leaves 10, 11, 12 on 2, 5 and 8,
    # the only pieces, each with a one-vertex neighbourhood.
    "comb": lambda: format_window(Window(
        Graph.from_edges(13, [(i, i + 1) for i in range(9)] + [(2, 10), (5, 11), (8, 12)]),
        frozenset({10, 11, 12}), (2,) * 10 + (0,) * 3)),
    # The free(2) r=2 ball beside complete(5) (and a triangle), ids shuffled
    # so that K5's least vertex (1) lies above radius-1 vertex 0 and below
    # the centre (10): X = N(10) lists K5 before the piece {10}, X = N(0)
    # after the piece {0}.
    "ballk5": lambda: format_window(shuffled_union(
        [cayley_ball(GroupSpec.free(2), 2), Window.closed(fixture("complete(5)"))], 0)),
    "ballk5tri": lambda: format_window(shuffled_union(
        [cayley_ball(GroupSpec.free(2), 2), Window.closed(fixture("complete(5)")),
         Window.closed(fixture("cycle(3)"))], 0)),
}

# (argv with input names in braces, exit code, sha256 of stdout)
CASES = [
    (["generate", "--fixture", "petersen"],
     0, "223b9bae4baa173304a95712770f74b4b0243e4f7f06382593b0da4967659e67"),
    (["generate", "--fixture", "random_regular(14,3,2)"],
     0, "c5da056407635d4396f1e3a96eb6d078fb40c14ab807122f430cbfe134fbd203"),
    (["generate", "--free-rank", "2", "--radius", "3"],
     0, "dd39ca429fee55876a72e705e531ff49faa1ed69b26227b07d7541ce59bc79bd"),
    (["generate", "--cyclic-orders", "2,2,2", "--radius", "3"],
     0, "6e37e13f47c4a72974b7a57754cbbeb7ff96a73acffa64835a51234b136c6518"),
    (["generate", "--grid-dim", "2", "--radius", "3"],
     0, "e2300f149921e3eb39516a264ee634b37f01a318fa5adbdfb7400a0eea4076f1"),
    (["generate", "--grandparent-depth", "3"],
     0, "8ec48cc033fced7e9e399e89fcbe7cac02b062474cc9b9a2512480fa1d99b382"),
    (["generate", "--points", "6", "--perm", "0 1 2 3 4 5"],
     0, "bfb5b0e7bc7ef780bd592500a43f482fa2055a92eb84ef0c44b8ef0ff96ac49a"),
    (["match", "{cycle12}"],
     0, "c6680c4d2d8a9835b911560c0e5d6cd3715698429411d776add902df9f09233e"),
    (["match", "{regular}"],
     0, "559b06d877d155ae1f5d390a3708acf59d595b939b56691f2e40345ad67e7256"),
    (["match", "{ball2}"],
     0, "29f24cc83b730b40316a72b0d6765191baa7ced89e0894ae01ff887664ed975c"),
    (["verify-tutte", "{star5}", "--epsilon", "0", "--k", "1", "--max-x", "4"],
     1, "ec15c6a586a39c651442c015d813269462006b775619b27f4dcc3a4da9999207"),
    (["verify-tutte", "{ball2}", "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
     0, "186278b33c7e7c7d52da097a656c6a28b669e167d2d074bdc5565d25b5da66d8"),
    (["expansion", "{cycle12}", "--max-f", "4"],
     0, "8406f95eaf52754bf8c52f17b613be9745364a75549a882d54f84203f8dc4ae5"),
    (["expansion", "{ball2}", "--max-f", "5"],
     0, "a1d6a4d2a1fe144c0c68f101f1f0fd2f5b3989958d110f06254c98baa7715e81"),
    (["expansion", "{ball2}", "--lemma", "--degree", "4", "--delta", "2", "--max-x", "3"],
     0, "e77a27222c2712c9ef0161f399ad41f981042654197dcebbf874812f3f3d608d"),
    (["layered", "{cycle12}", "--epsilon", "1/8", "--levels", "2", "--cert-max-x", "4"],
     0, "fa58c58935db79c4b3f42612e9f35b1d3debb3d699af2ad944c8102c037fd3bb"),
    (["layered", "{ball2}", "--epsilon", "1/8", "--levels", "1", "--cert-max-x", "2"],
     1, "d719709e833b9b803db0140b25dbfadfb1ca13967877152131404569d8595a2e"),
    (["orient", "{cycle12}", "--method", "euler"],
     0, "f8e053cfa9fd538fc94676d44a50da3051daee471fac9781db1ff57a9b6f7f73"),
    (["orient", "{regular}", "--method", "gadget"],
     0, "82fab1d0d77d2b1d6822adc4d4b158449e36ef80db8a8cafae8f91cb27ea6523"),
    (["orient", "{regular}", "--method", "euler"],
     0, "5c94c93c304eacd193080e7cc8e725e92a3c434def1c5af148e398d1a80fecf6"),
    (["orient", "{triangles}", "--method", "euler"],
     0, "9a1d538ccb2e69e5166da2b14d7c845faea128127985b0d2b2534de2fc78d04d"),
    (["gadget-audit", "{ball2}", "--epsilon", "1/5", "--max-f", "3"],
     0, "acdc57f529f71488bfbce7b77608e15c2643179e6d4d7a5d9e9431e9fa297f35"),
    (["gadget-audit", "{cycle12}", "--epsilon", "1/10", "--max-f", "3"],
     0, "73d46c9de455dc1d8087704c1fd7a4f606c9590fbbe8731ebe2f0ce744dba071"),
    (["verify-tutte", "{star5}", "--epsilon", "1/3", "--k", "2", "--max-x", "2"],
     1, "7c03e6268329095b077f2883844bf7e7368facf748c782e734c0e877b4829264"),
    (["verify-tutte", "{complete4}", "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
     1, "9aac8ccf1ebd6d98354c66d6e8e6e23e75f6bfcd1f9d7d5754c391151b0f4f42"),
    (["verify-tutte", "{ball2}", "--epsilon", "2", "--k", "2", "--max-x", "2"],
     1, "f542654524dda23d3641b476de21a2bdfeabdeb22ac2445bdc4d3ce4b103865d"),
    (["expansion", "{ball2}", "--lemma", "--degree", "4", "--delta", "4", "--max-x", "4"],
     1, "89882d5c62436723fbda761f1775763f0b6ff68d7b954cdd5fc4b8dc3ddbf24f"),
    (["expansion", "{triangles}", "--lemma", "--degree", "2", "--delta", "1", "--max-x", "1"],
     1, "33b9464b91239b1827ef9e6bbd14cf6f86cf554f0d0bb5ce8ce614e38734b125"),
    (["gadget-audit", "{empty3}", "--epsilon", "1/5", "--max-f", "2"],
     0, "4c428ed2d79ac0f22e58a2d2ab8410c84523454f7d0b79c59d9146a5f73a9610"),
    (["gadget-audit", "{grandparent3}", "--epsilon", "1/5", "--max-f", "2"],
     0, "90809dbc12af8a475570f435c2cd5c757a3d028e7f3230a50c5952d431795813"),
    (["expansion", "{twopieces}", "--lemma", "--degree", "3", "--delta", "1", "--max-x", "2"],
     1, "7083457111f7cd23cb04dfc999cf8df099860606dc2d8858720c0753dd70a549"),
    (["verify-tutte", "{ball2}", "--epsilon", "3/4", "--k", "1", "--max-x", "4"],
     1, "06435e68335cd28b2c1f19ecc8b7cf75a9e4dfca6026771c7806e8ede291b83b"),
    (["expansion", "{cycle8}", "--max-f", "4"],
     0, "6f67417629761c176033bbeca6f762f3a97fca117108a8d1f775def9e5aa5b4f"),
    (["gadget-audit", "{ball2}", "--epsilon", "1/5", "--max-f", "5"],
     0, "eea47cc63b1d276e9a2136e8d205a068fec46b7eb11da7b8dfef0559b9b3567d"),
    (["gadget-audit", "{ball2}", "--epsilon", "1/5", "--max-f", "6"],
     1, "efe9b9893579b1b93705439cd83c2b346890c3ab4c12d6ec841208a6d791fedf"),
    (["gadget-audit", "{isolated}", "--epsilon", "1/5", "--max-f", "3"],
     1, "d49fcbc667a4d28709f597c5531240083025e448b818991f62e1941f65afc368"),
    (["verify-tutte", "{cycle12}", "--epsilon", "1/2", "--k", "13", "--max-x", "3"],
     0, "0398d97bc4c20626901658e29bc98b974674d317e3570062babb42115ecad0d1"),
    (["verify-tutte", "{star5}", "--epsilon", "1/3", "--k", "7", "--max-x", "2"],
     1, "d68bad74d796c707b3294a2fb7760c250d6f6d959b0467738ab5db94ea9db146"),
    (["verify-tutte", "{twopieces}", "--epsilon", "1/2", "--k", "11", "--max-x", "3"],
     0, "cc57e17e2b7947d489c3a39bed9770fc24daf9bda612bea9d62bfb902cf2f332"),
    (["verify-tutte", "{ball2}", "--epsilon", "1", "--k", "1", "--max-x", "4"],
     1, "2d465f883c64aac32262f2a02f622e97049101a0a199bc92a9c7f16806ceb59c"),
    (["verify-tutte", "{ball2}", "--epsilon", "3/2", "--k", "2", "--max-x", "3"],
     1, "e76f0715a67c297bee72817df95015dec7aa8af3b873739fe3067273b8275034"),
    (["verify-tutte", "{caterpillar}", "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
     1, "188266d4736329270101b78248ae9a5cbbbd329fa6061ce4882b5898f4bc475a"),
    (["verify-tutte", "{caterpillar}", "--epsilon", "1", "--k", "3", "--max-x", "4"],
     1, "2a082d13025061a1f1ba1fa15949fe0e6f3ab60527b241d0c9c52260beb95a95"),
    (["verify-tutte", "{comb}", "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
     1, "dd85459584300e0ebf4751660e8f7da3414687fc6a513748e0e2d772621da782"),
    (["orient", "{triangles}", "--method", "gadget"],
     0, "dd07cdc4d33180544016f2541e14d671f702ee7cc1526216371fce0de5c31a5e"),
    (["layered", "{cycle40}", "--epsilon", "1", "--levels", "2", "--cert-max-x", "2"],
     1, "db0d94a4e6faed68d9545aedb9dddb29e15322b2a9477a21367c88b043011e2e"),
    (["layered", "{cycle40}", "--epsilon", "1", "--levels", "2", "--cert-max-x", "1"],
     1, "db0d94a4e6faed68d9545aedb9dddb29e15322b2a9477a21367c88b043011e2e"),
    (["layered", "{cycle2000}", "--epsilon", "1", "--levels", "3", "--cert-max-x", "1"],
     1, "175704840d81324e86d53a02b54f6abe3f9c671774fe9c12c5db39fbc5459f27"),
    (["verify-tutte", "{ballk5tri}", "--epsilon", "3/2", "--k", "2", "--max-x", "3"],
     1, "528c809a36f7c22e5644fa35c9fdd54eb331eca36c3e0135ba4eea7aef5ebf4f"),
    (["verify-tutte", "{ballk5tri}", "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
     1, "4ad33a45298d1bbecd046af3c5a189e58918c09f68b1c2cc04c9c00534f0db5c"),
    (["expansion", "{ballk5}", "--lemma", "--degree", "4", "--delta", "2", "--max-x", "4"],
     1, "dd6823743253f45668fabdcae880212e405ef6fa864e05f1cbe9d9098247737f"),
]


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, make in INPUTS.items():
        path = root / f"{name}.txt"
        path.write_text(make())
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv, code, digest", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_golden_output(input_paths, capsys, argv, code, digest):
    got_code = cli_main([a.format(**input_paths) for a in argv])
    out = capsys.readouterr().out
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
