"""Output bytes of word-parsing commands, pinned.

Every command here parses words: the 40 first distance queries of
perfbench's cayley-ball workload at seed 301, `member`, `rewrite` and
`split` on K3_2_2, `area` over presentations with bracketed relators and
on [x^n, y^n] for n = 8, 16 and 32 (greedy-probe dives of depth n^2), and
malformed `metric` targets.  The digests were recorded with the parser
that read text one character at a time (the reference in
tests/test_parse_reference.py), so a parser or membership change that
alters one output byte or exit code fails here.  The three [x^n, y^n]
digests were recorded with the probe that counted seam cancellations
letter by letter, so they pin its traversal byte for byte.  The
SHARED_HELPERS commands (`certify`, `split`, `normalize-basis`, `dehn`,
`toy-amalgam`, `rewrite`) pin every call site of the shared
word helpers the same way.
"""

import hashlib

from kgroups.cli import main

# each query: (target, exit code, sha256 of stdout)
QUERIES = [
    ('x y^-1 x^-1 y^-1 x y x^-1 y^-1;y^2',
     0, 'd9f10f7fccf18303f1119779b8866608c1f8ff64787b7960b7dbe3ccf17f424b'),
    ('x y^-1 x^-2 y x y^-1 x^-1;y x',
     0, '4de9f8a48619b772462d0aeaa5e7d9f97e5e9e89f4ef55ef29a65fbcd8d60aae'),
    ('x y x y x^-1 y^-1;y^-1 x^-1',
     0, '34f2338d1b7a611429a1841674e31d0e822228e200a50592d261678a0d394eb7'),
    ('x^-1 y^-1 x y x^-1;x',
     0, '738bbd130995c2709eba8164145eab202fa7f606a31cc348a0a98ebf801cbd0e'),
    ('x y x y^-1 x^-1 y x y^-1 x^-1 y x y^-1 x^-1;x^-1',
     0, '7b0e0464f4c947739b16e33e99e22ba897b8eedbfb8cb7b46eae5e6a88a899e3'),
    ('x^-1 y x y x^-1;x y^-2',
     0, 'd7ca248c698c319af3614700b143387529046c33b16d14a6559b8343adf9683c'),
    ('x^-1 y^-2;y x y',
     0, 'b8d73e91e54fc6cac2d4b2c2267231138c5a135e35d0a06d94e3ee54daae69e7'),
    ('x^3 y^-1;x^-3 y',
     0, '4c397878869dfe1a2e440434f27420d4fabcae08e88560fb4286ab7ff04de4d4'),
    ('y x^-1 y x^-1;y^-1 x y^-1 x',
     0, '36363ce318fa840e521c587cb848dc3e0fdd47ce0248c5a0d5462d23527d31df'),
    ('x y x^-1 y^-1 x y x^-1 y^-1 x y x^-1 y^-1 x;x^-1',
     0, 'ad27b68aed8d0a2fdc65cf7711d6d7aef91fc061210b128cde5898120249cad1'),
    ('x y x;y^-1 x^-2',
     0, '23a04ecaa7688032fcece9a0e742ac4e700ee903e6d9408eddc6da51d546a884'),
    ('y x^-1 y^-1 x;y^-1 x y x^-1',
     0, '353591c39df90ed6ac7cb588b88f167a792cbb47e4dc5880107f830bfe8da272'),
    ('x^2 y^-1 x^-1 y;x^-1',
     0, 'd0310ccbbfba5b376f65dd234cc4af966ad9661ae215a2608b7c72b180e6be4a'),
    ('y^-1 x y x y^-1;y x^-2',
     0, 'd001925d950b71e110a3ffb27a7fb5985a3b3abf8d26bf62dc88698ab2777bbb'),
    ('y x^2;x^-1 y^-1 x^-1',
     0, '5c2d832af2f838b349b050a534035cc6028a86213e4292f133ce38fa5a67aa23'),
    ('x y^2 x^-1 y^-1 x^-1;y^-1 x',
     0, 'f79d25bca7971201187f66b9a6b26745abb485737c7aa52e1031ea9a820388f0'),
    ('y x y x^-1 y^-1 x y^-1 x^-1;1',
     0, '6f55ec62ac99118181941033c3e73dd24e24c87ee5571f9878c707c792bc3d8c'),
    ('y x^-1 y^-1 x^-1 y^-1;x^2 y',
     0, 'be29b60415b092f8959cf8b76ff0819e2e467e2276427c7293b6e7a5d4c115a9'),
    ('y^-1 x^-1 y^-1 x;y x y x^-1',
     0, '284031b66c2455e9a5bda12abdea06fe7a3f4d6efb15119ce5e1bc8f13b67dbc'),
    ('x^2 y x^-1 y^-1 x^-1 y;y^-1',
     0, 'c59dfe06cede54822bdfc8fd1619a666df13c3bfed1321fb2df30467e08e9cde'),
    ('y^3 x y^-1 x^-1 y x y^-1 x^-1;y^-2',
     0, '3c37a879c2ee7c2404f2bcacc1734bf691f259a2e945a2014c5fcf8e6ec8eee3'),
    ('y x^2 y x^-1 y^-2;y^-1 x^-1 y',
     0, '683d41d517c21b7bff9c1a8f6627cebad7fa670378cce0bdbfc203666c32175e'),
    ('x y x^-1 y x y^-1 x^-2;y^-1 x',
     0, 'f5eb51b27febd8d96f37f68b55eae119ced97f7d315ced9d756f028e043f80e0'),
    ('y^2 x^-1 y;y^-2 x y^-1',
     0, '650941fcf12243377ee4523761d6fa70155a59018bd889442915be924076ac26'),
    ('y x^-1 y x^-1;y^-1 x y^-1 x',
     0, '36363ce318fa840e521c587cb848dc3e0fdd47ce0248c5a0d5462d23527d31df'),
    ('y^-1 x^-1 y x y^-1 x^-1 y x y^-1 x^-1;y x',
     0, '1ed71305f33e33da826550f530e35472a9b5187e9ab18ea0d17464b7d46f52dd'),
    ('y^-1;x y x^-1',
     0, 'c3dd04e54a510778a58132e173036942fcf33c636f95a2b5bbd6be25c328532e'),
    ('y x y^-1 x^2 y x^-1 y^-1;x^-2',
     0, 'fc7ca64d3758fef68547d3e66fd4277c0868a8ca707fd63a216f43432fead70b'),
    ('y^-1 x y x^-2 y^-1;y x',
     0, 'a7575c65be13ea16c7927db71bdade6a43818d7d0b1924785ab3b5068ab3c09c'),
    ('y x y x^-2;y^-2 x',
     0, 'c6c253d1895d6786cd566f5fc8c2f3d6d35d9ca4f6cdf22aa5731cc7be1dae7a'),
    ('y x y x^-1 y^-1 x^-1 y^-1;y^-1 x y',
     0, 'fcd6a41fd407e6553dfe338e01977489f2d518055c7f7686efd5de466c3235f6'),
    ('y x y x^-1 y^-2 x;x^-1',
     0, 'a1c1e94ac18a3849fd37df66719317a120faea7ffd89380b8ade01865d4ba405'),
    ('x y x^-1 y^-3 x;y^2 x^-1',
     0, 'b292dc6c0f99566e345ef42c069ccceaf3caef8fa0254c8048d374e03cb68f04'),
    ('x^2 y x^-1 y^-2 x y x^-1 y^-1;x^-1 y',
     0, '6ee0a7660b0fc4171f67bf2eeb482ca5056c822284c070ce587a913c3f4b5b5e'),
    ('x^2 y x^-1 y^-1 x y x^-1 y^-1 x;x^-2',
     0, 'e4eb120a2e0966fedd845f3d5226ccbb8f28a3d42556af085cafec34bf32336b'),
    ('x^-1 y^2 x^-1 y^-1;x y^-1 x',
     0, '625ab8696376d26c981b9f729790eb76d14239858ab4c2923162a4c0282e3acd'),
    ('y^-2 x y^-1 x^-1;y^3',
     0, 'f035bdb1df98e6519f34f45e94e51b1efbaede5c38be9e3f0946d9513008c350'),
    ('x y x y x y^-1 x^-1;x^-1 y^-1 x^-1',
     0, '5caa20a6625ebbddfd9379d29a706a2956f0c3a57bb5ca218ad37ca8cfc00d71'),
    ('x^-1 y x y^-1 x^-1 y x^-1;x y^-1 x',
     0, '4bed2a011cd090109e36cffcf7e920ea760b8a9aa768e57788c29e05ada0b330'),
    ('y x y x^-1 y^-1 x^-1 y x y^-1 x^-1;y^-1 x',
     0, '04536c46e77affd55e1063703ea7501a59b6b39ad0029dea5264d35b66fcf1d5'),
]

# each: (argv, exit code, sha256 of stdout)
COMMANDS = [
    (('member', '--group', 'K3_2_2', '--element', '[x, y^2] ; (x y)^-1 ; y x', '--format', 'json'),
     0, '0b9f966e6fd7e95c673ab28b121bd52d679993fac1e8b3538688b67da7941dbe'),
    (('rewrite', '--group', 'K3_2_2', '--element', '[x, y^2] ; (x y)^-1 ; y x', '--format', 'json'),
     0, 'e83f9dd054680fa3b0909a1b650727fdd79840d5bc95185b9dde80ac5a448869'),
    (('split', '--group', 'K3_2_2', '--element', '[x, y^2] ; (x y)^-1 ; y x', '--format', 'json'),
     0, '6dae3b3d46a5fd526a5e1ca67d31454db865c3b91060ab0bf95d6d3b1f6c25e4'),
    (('member', '--group', 'K3_2_2', '--element', '[x y, y^-1]^2 ; 1 ; [y, x]', '--format', 'json'),
     0, 'a487fc72ca06659dfdb7b11fdd830b930c79f2da895fa6b30361a2659edda711'),
    (('rewrite', '--group', 'K3_2_2', '--element', '[x y, y^-1]^2 ; 1 ; [y, x]', '--format', 'json'),
     0, '72b2b52454af1e32e782ceaac80e993a4565df9862ad6a97fba2a225eec5c464'),
    (('split', '--group', 'K3_2_2', '--element', '[x y, y^-1]^2 ; 1 ; [y, x]', '--format', 'json'),
     0, '42e5a45034ec5b9f8a262e312ac18527b93555ebd5ae5d74d64429b6ab26ea6b'),
    (('member', '--group', 'K3_2_2', '--element', 'x^3 ; y^-2 ; x^-3 y^2', '--format', 'json'),
     0, 'd8a7f90235633ac5f1b3268e0d17ab6ff5437094e463e2e76eda2ce6b448beba'),
    (('rewrite', '--group', 'K3_2_2', '--element', 'x^3 ; y^-2 ; x^-3 y^2', '--format', 'json'),
     0, '131947c1094fa54774278ca40a510dabca9df0bebcecbb5e16e3fe183a696c41'),
    (('split', '--group', 'K3_2_2', '--element', 'x^3 ; y^-2 ; x^-3 y^2', '--format', 'json'),
     0, 'bccba530649fe245438f6bf1b62ef45cfdcc5505624ca8461ece43987e7dac47'),
    (('member', '--group', 'K3_2_2', '--element', '[x^2, y] x ; x^-2 ; 1', '--format', 'json'),
     1, '37a07aa9e2497065931932fe6cd7dbcac1c40902137f5ae81e4b83bcd4dd5f4d'),
    (('member', '--group', 'K3_2_2', '--element', 'x (y x^-1)^2 ; y^-1 x^-1 ; x^-1 y^-1 x', '--format', 'json'),
     1, 'a3cd542a7ce9dcfa5dcddc1eaf393bafe1f7140f76fd25cf953be4d7681508e6'),
    (('area', '--presentation', '< x, y | [x,y] >', '--word', '[x^2, y^2]', '--node-cap', '2000', '--format', 'json'),
     0, '367ea9963bcad065b3a870b1765d01b5faca79547c2509a4168f516cabf418c8'),
    (('area', '--presentation', '< x, y | [x,y] >', '--word', '[x, y^-1]^-2', '--node-cap', '2000', '--format', 'json'),
     0, '5f294d8e827f60a9d0cccbd3b39e36f4bd49ee75b48eae9e81e07b59d0a3aa89'),
    (('area', '--presentation', '< a, b, c | [a,b], [b,c], [a,c] >', '--word', '[a^2, b]', '--node-cap', '2000', '--format', 'json'),
     0, 'eb53c5c9231cd6d6401d16b5202d482c77aaf90b25b4ea513263f8ee1d017f6b'),
    (('area', '--presentation', '< a, b, c | [a,b], [b,c], [a,c] >', '--word', '[a, b c]', '--node-cap', '2000', '--format', 'json'),
     0, 'cb9922e05d4528889895a51ee5069b6f36b59b07ac1224f8ead80ec132ff7393'),
    (('area', '--presentation', '< a, t | [t, a^2] >', '--word', '[t^2, a^2]', '--node-cap', '2000', '--format', 'json'),
     0, '82638cbfdd8f1416a525c50da83632a471ed93c929ac1f919a6fd5042dcd7a92'),
    (('area', '--presentation', '< a, b | (a b)^2 (b a)^-2 >', '--word', '(a b)^2 (b a)^-2 [a b, b a]', '--node-cap', '2000', '--format', 'json'),
     2, '4112094068ea5a4280272a7d938c5cc89b7a886b38a82aaf44d95c127a0a1d72'),
    # long greedy-probe dives over dense seams: every witness byte pinned
    (('area', '--presentation', '< x, y | [x,y] >', '--word', '[x^8, y^8]', '--format', 'json'),
     0, '9ab29ffdaf10c8094c2d4461c1c16fef9e3c044615c1976e926fb4bc7a80397b'),
    (('area', '--presentation', '< x, y | [x,y] >', '--word', '[x^16, y^16]', '--format', 'json'),
     0, 'ef8d9535d6dd32d316d144becd3199bd310aeb20b1c4d11767c5de49814f6f95'),
    (('area', '--presentation', '< x, y | [x,y] >', '--word', '[x^32, y^32]', '--format', 'json'),
     0, 'a1731bbcf5b209182b02ec3681ac32ef33850446183349e05d34c20ba9ceba8a'),
]

# commands whose output passes through the word helpers (`words.runs`
# and the capped power), the substitution split, the new-basis check and
# the abelian evaluation rows; the digests were recorded with the per-site
# copies those helpers replaced.  Each: (argv, exit code, sha256 of
# stdout, stderr)
SHARED_HELPERS = [
    (('certify', '--n', '1'),
     0, '04b14de00641289ec3593803394986c7f005f42bb50c1da68ce1c0d977ee8011', ''),
    (('certify', '--n', '2'),
     0, 'f0862cbb3470942aa52c67f1051e73e8ed93839deb2ada9fe0b871e85ab22086', ''),
    (('certify', '--n', '3'),
     0, '914fa6cb4cc84694a68108a2c20a343343463101b13b6f9116175edca612d2ed', ''),
    (('certify', '--n', '4'),
     0, '293ab13ae380270dc62d40c06cf8492706cdd345afe6d3d085973c0a01e39ce5', ''),
    (('split', '--group', 'K3_2_2', '--element', '[x^2, y^3] ; [y, x^-1]^2 ; y^-3 x y^3 x^-1', '--format', 'json'),
     0, '0b76a5185e54ed068486406b250733abfec95d01079e2bfe84dec059af9bb3ca', ''),
    (('split', '--group', 'K3_2_2', '--element', '[x^2, y^3] ; [y, x^-1]^2 ; y^-3 x y^3 x^-1', '--format', 'table'),
     0, 'fa267e3fe1453f0605233cfadde85b38f188f9d059b82b4533ec41f8e81ec5ff', ''),
    (('split', '--group', 'K3_2_2', '--element', 'x^2 y ; [x, y] y^-1 ; x^-2', '--format', 'json'),
     0, '94322f7362da1d00afed41dd2a63f2a44c9f74d40f5b0dbceb9c99760e8115b3', ''),
    (('split', '--group', 'K3_2_2', '--element', 'x^2 y ; [x, y] y^-1 ; x^-2', '--format', 'table'),
     0, '01f00a3b4609be4ae9e723736af70adf89f33ecdfb78daecc334fc4fd3068f27', ''),
    (('split', '--group', 'K3_2_2', '--element', '(x y^-1)^3 ; y^2 x^-3 ; x^-2 y x^3 y^-2 x^-1 y^2', '--format', 'json'),
     0, '9011d4fef21f70047560c5ae8fbe86bb37e2587d8df114372824ad44cb94ecc0', ''),
    (('split', '--group', 'K3_2_2', '--element', '(x y^-1)^3 ; y^2 x^-3 ; x^-2 y x^3 y^-2 x^-1 y^2', '--format', 'table'),
     0, 'a5c74ce4db1f97075ff1808fff4758656fa8ff2c32eb07f5863dd5332f124900', ''),
    (('normalize-basis', '--rows', '0 1; 1 1'),
     0, '0ffbd6a127aca83b4e26d4686b8e932b97e6857a52f6d1c4dc4cc77a04d9947c', ''),
    (('normalize-basis', '--rows', '2 3; 1 1; 5 0'),
     0, '95f89aeeb1e23597b2919f3c2ab502a23a0c5d58913b8d3f7764efee226bfb48', ''),
    (('normalize-basis', '--rows', '7; 3'),
     0, '7b12b78bcc1bb7806981be12fd97827e22d3de7ad91c31075c4de4f4947d1b39', ''),
    (('normalize-basis', '--rows', '2; 4'),
     1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: homomorphism is not surjective; no normal basis exists\n'),
    (('dehn', '--presentation', '< x, y | [x,y] >', '--n', '6', '--format', 'json'),
     0, '63a24f690cb3b75152641afa3cd3cbbeb5653b22115d7150f0e54ce0db14e6fe', ''),
    (('toy-amalgam', '--k', '3', '--n', '2'),
     0, 'd1eb5aed8128168e8ba121db6291d650333c78a8763e38ec1c9508625140c22f', ''),
    (('rewrite', '--group', 'K3_2_2', '--element', '[x^2, y] ; y^-1 x ; x^-1 y'),
     0, 'e5ab509437bf20ea4608618b322e16498293f48c8c95277e38b5ad42707ca15c', ''),
]

# each: (target, the one line on stderr)
MALFORMED = [
    ('x (y ; 1',
     "error: expected ')' at line 1, column 5\n"),
    ('x^ ; 1',
     "error: expected an integer exponent after '^' at line 1, column 3\n"),
    ('[x, y ; 1',
     "error: expected ']' closing commutator at line 1, column 6\n"),
    ('q ; 1',
     "error: unknown generator name 'q' at line 1, column 1\n"),
    ('x^-;1',
     "error: expected an integer exponent after '^' at line 1, column 3\n"),
    ('[x,y]]; 1',
     'error: expected a generator name at line 1, column 6\n'),
    ('1x;1',
     "error: unknown generator name '1x' at line 1, column 1\n"),
    ('x y,;1',
     'error: expected a generator name at line 1, column 4\n'),
    ('x^99999999999999999999;1',
     'error: word too long (limit 1048576 letters) at line 1, column 23\n'),
    ('[x,\n(y;1',
     "error: expected ')' at line 2, column 3\n"),
    ('é;1',
     'error: expected a generator name at line 1, column 1\n'),
]


def _run(capsys, argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, hashlib.sha256(cap.out.encode()).hexdigest(), cap.err


def test_distance_queries_keep_their_output_bytes(capsys):
    changed = [target for target, code, digest in QUERIES
               if _run(capsys, ["metric", "--group", "K2_2_2", "--target",
                                target, "--radius", "8", "--format", "json"])
               != (code, digest, "")]
    assert changed == []
    assert len(QUERIES) == 40


def test_word_parsing_commands_keep_their_output_bytes(capsys):
    changed = [argv for argv, code, digest in COMMANDS
               if _run(capsys, argv) != (code, digest, "")]
    assert changed == []


def test_commands_on_the_shared_word_helpers_keep_their_output_bytes(capsys):
    changed = [argv for argv, code, digest, err in SHARED_HELPERS
               if _run(capsys, argv) != (code, digest, err)]
    assert changed == []


def test_malformed_targets_exit_1_with_one_line(capsys):
    empty = hashlib.sha256(b"").hexdigest()
    for target, message in MALFORMED:
        assert _run(capsys, ["metric", "--group", "K2_2_2", "--target",
                             target]) == (1, empty, message)
