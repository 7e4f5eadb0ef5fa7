"""Golden outputs: SHA-256 digests of stdout for a fixed set of invocations.

A refactor that claims unchanged behaviour must leave every digest and
exit code here as it is.  The set covers certify at, just below and just
above each sharp threshold, certify at refine depths 0 and 4, verify
all, verify checks that fail (exit 1) or run in their other regimes,
the k-envelope check below 1/4 (whose grid ends at min(hi, x_p); with
lo above x_p it exits 3, which test_cli.py checks), verify on narrowed
grids (whose tails and midpoint differ from the default) and both table spacings, all on a
500-point grid; every output format: json and csv tables, constants and
verify all (str and None cells), eval's json, eval of every function
with parameters in csv and text, and the w_plus and J tables in json
and text; and one csv table of every function `table` offers.  An argv
that sets its own --grid-n runs on that grid, and an eval argv as it
stands: eval takes no grid option.  To re-pin after a
deliberate output change, print hashlib.sha256(stdout.encode()).hexdigest()
for each argv.  The eight verify all digests were last re-pinned when the
gamma identity columns became their raw residuals: only the
k_half_closed_form, k_half_squared and gamma_reflection cells moved.
"""

import hashlib

import pytest

from ellipcert import cli

GRID = ["--grid-n", "500"]

# (argv without the grid option, exit code, sha256 of stdout)
GOLDEN = [
    (["certify", "thm1-convex", "1.4515692950422916"], 1, "6a125382f927bbefc3909a5aea55a54046b20864de82565b7b71252ecd621225"),
    (["certify", "thm1-convex", "1.4615692950422916"], 0, "91e95627edb18c993926f9afee9c2acde44760244ee948fee21c8f61d38d9a5c"),
    (["certify", "thm1-convex", "1.4715692950422916"], 0, "49c5f3848e353ee9bab6ee5b44a7331b5013a86500f0e2ec94ce0f4317ae0052"),
    (["certify", "thm1-concave", "1.3233333333333333"], 1, "7a23813f9cbfe3df549c01f179098ad2c742179e03b37dec1403cd836642e79c"),
    (["certify", "thm1-concave", "1.3333333333333333"], 0, "6220c35c9475097da2770a574b742f621d48f646e22d7572bbdff0d6369d4c84"),
    (["certify", "thm1-concave", "1.3433333333333333"], 1, "f95593995ad327372b9a8e7f8dd08fb13ba05dc78e233a14ed76688741f739a3"),
    (["certify", "thm2-convex", "1.3762943611198906"], 0, "d024f24eb73e5e3a7b3a3139c0997cab63c38a17d3b5822168ace636e8e52807"),
    (["certify", "thm2-convex", "1.3862943611198906"], 0, "3adf1bcc4263213ccf8a598339c3563254266746f720d5f52c7d8637ee5ee0a0"),
    (["certify", "thm2-convex", "1.3962943611198906"], 1, "f74016152f08e2b5efb9c54d220caae4381809dfc713a963e25a8c23e4f0bd56"),
    (["certify", "thm2-concave", "1.59"], 1, "84e95aaddc378c0cf23453bf77a53b6755e6fb1e6337cd9a1594e4e1141127c2"),
    (["certify", "thm2-concave", "1.6"], 0, "b57fdb4e78f19bb7034dadcb1560ed832ca52f914d5efcb9f4c6224eeda5d939"),
    (["certify", "thm2-concave", "1.61"], 0, "0d5dc26c14e1b4f17910cddb44eb88075174dd6a63caafb7e0045d221a2965f5"),
    (["certify", "thm3-logconcave", "0.20875"], 1, "914f1280b64173ef4fec070711fea9ef6c8f27f064a9232d273ed529657600fa"),
    (["certify", "thm3-logconcave", "0.21875"], 0, "254338b5b7bab2eb20c4ee87ebc1a5defd257a9c87fc6e0576f38bec99396dc7"),
    (["certify", "thm3-logconcave", "0.22875"], 0, "2289ebbf9a7cdc33b7cd8a634c1a208558247231a8b1b6d23d296390e5398dd2"),
    (["certify", "thm3-logconvex", "-0.1"], 0, "7cf66f68ced268460efbbd3bcaae2f5d333e724c055937bbc2d085f8f19b02b1"),
    (["certify", "thm3-logconvex", "0.0"], 0, "1bf655126eec65665d6b6c486ffa3b47e1a4c579ffeff018fd5952475f87847c"),
    (["certify", "thm3-logconvex", "0.1"], 1, "15e5de2636078b53e24ef448c98b00e30c68ec5870fde5f0bbe9acda39bec806"),
    (["certify", "cor14-convex", "1.2703300858899105"], 1, "04c573c708599b351f703d5a9e6c15a014b6c75184f3174eb2d743597724e0a2"),
    (["certify", "cor14-convex", "1.2803300858899105"], 0, "8d62c2f90feabce41bde5e9cd1e93b8babd1eb57de1304ce9f5ce48eb938e938"),
    (["certify", "cor14-convex", "1.2903300858899105"], 0, "148da118f02b19a43864c6d604b6abd9fd9521b45d69dd764909e4b1bae1e4f7"),
    (["certify", "cor14-concave", "0.2096699141100893"], 1, "f769635b2708764386df1a9ed5834738909f88d08c90a10133374d54e134de48"),
    (["certify", "cor14-concave", "0.21966991411008932"], 0, "8c21a7c08f5a7498159541a1c61734b2751171e7017fcf7c3ba93b063b68915f"),
    (["certify", "cor14-concave", "0.22966991411008933"], 0, "e84c7fe7ec7fcdaafa2553e50cf5ec9e29ea74f876f51efa8413994db18804db"),
    (["certify", "cor15-monotone", "0.24"], 1, "401378d8d33d148a9990de6ffbc9961ff9cc5e64abe18125a494a0fc82693af4"),
    (["certify", "cor15-monotone", "0.25"], 0, "475d49480f0e8ad758b7bd8178ba9a0dee146c58fe166a8aa37eb44f594d435f"),
    (["certify", "cor15-monotone", "0.26"], 0, "bd4692007b5137609526a13a3ed9fc62024b8d332f15f8b3629e443b95cf255c"),
    (["verify", "all"], 0, "eb88a31c16077c24bef57588c994e0ae7c43f34494640b9d8cf47cda4aa61a63"),
    (["verify", "k-envelope", "--p", "0.1"], 0, "17886e6f7566ec2cad28a7b1d06f64bcf87c4e118c9ef9d4db00c3511af5c8eb"),
    (["table", "K", "--spacing", "uniform"], 0, "9a2473afc6ddda8e1a32be060f20e01a2ddee80d746a53eb1e4d8e56e769561d"),
    (["table", "K", "--spacing", "geometric"], 0, "ab97652b732e354b942b9c14ca3b6cd55ddef534d10be492537b4077924007be"),
    (["table", "K", "--spacing", "uniform", "--format", "json"], 0, "b976fc5f6b4d73b1d77f659bbf493551c8f6b2d261fb4f3f024cd85e63ec93f8"),
    (["table", "K", "--spacing", "geometric", "--format", "json"], 0, "4c0aa2e6139749afe5e5305a00d173e852abc7ddbcfe9080dc075bfd033f4375"),
    (["table", "K", "--spacing", "uniform", "--format", "csv"], 0, "a20ca475f111f0e2e96754888cc106b5548d65c8692eb2d04fbd6eb688e8c4ef"),
    (["table", "K", "--spacing", "geometric", "--format", "csv"], 0, "93d2b44d4df4bf2a8fc75b4abe19eb80a5980cbb1c0967b008eb32f84c762d83"),
    (["table", "G", "--spacing", "uniform", "--format", "json"], 0, "6ff179b74322639956447a84e9766d460a54d7dafaccf744afdee7f97f05c6ae"),
    (["table", "G", "--spacing", "geometric", "--format", "json"], 0, "ec0a8a49b9b1477eac91f6e2b29cf9c3fa7bdff7123e6969ebdf8eedf0643480"),
    (["table", "G", "--spacing", "uniform", "--format", "csv"], 0, "1cb931be325fb816c7ef16b90e18f1009f20f961b4c89e32e0acc6e201929b86"),
    (["table", "G", "--spacing", "geometric", "--format", "csv"], 0, "5e0357546a3457d922778c2c11d9a29982b54b0fe7166fbb7ecf775bca07f80d"),
    (["constants", "--format", "text"], 0, "40b5492f2e5d1e8f919fbf3c7eaacddf91b1901d5996e5be89859fc8f52b2415"),
    (["constants", "--format", "json"], 0, "dde600e2d9acc7f738827100597cd56dd3d0a52229e6096b8831682d61c0d588"),
    (["constants", "--format", "csv"], 0, "1ada5b6c3497f830c1c656db4d19ef9228378deb1a03b5ac737c4a6f081e47de"),
    (["verify", "all", "--format", "json"], 0, "59a477242d523df42ad73363228cf3fe5e17a7c731d7799217d5d7fc04ead332"),
    (["verify", "all", "--format", "csv"], 0, "57442ae95ec15027c9f09b8b9b2834264443955140bac4a8efb9805679ad01b1"),
    (["eval", "K", "0.5", "0.9", "--format", "json"], 0, "97cfb8c0ac5f48969bfd1020a44f7accbaa980dc2fd1bdab8477c1f7059f2e87"),
    (["table", "E", "--format", "csv"], 0, "7019b531ea10751666cd71dcd2b9a7d6081e014f1467322be29cde6908c1b9ef"),
    (["table", "u", "--format", "csv"], 0, "e2cc221d5c55666978d72cc9b790a4b101fb7137e6f4765b4edcc29c5a35f753"),
    (["table", "v", "--format", "csv"], 0, "7bb99b45b2d9c4577742721fb830db0c8f9ee3814f50bdd448c9d3661c67a4e5"),
    (["table", "delta", "--format", "csv"], 0, "a3277cac1210fc600f3e39c7b776797e69dc9c21c224ce1f12540bced1f03c9d"),
    (["table", "w_plus", "--format", "csv"], 0, "751dd79cb08c22fee21c4d88615addfee3cd66bed26bb18ea846e75786eb67d5"),
    (["table", "w_minus", "--format", "csv"], 0, "008ce1e38b89128733bd200b9564c6b8bf64bfc8a9d598ef792bd0310af98f24"),
    (["table", "phi", "--format", "csv"], 0, "a68b3b2c96418a9ef15fe9355f98aa55d44283dd16cec9597a47527d235beeca"),
    (["table", "J", "--param", "p=0.5", "--format", "csv"], 0, "5d162e768f86343c0e78508e29731e345e09ada7a47beedee5d37dc1178b7b0b"),
    (["table", "L", "--param", "p=0.1", "--format", "csv"], 0, "dd6cf0ef5d8a5fa7ead0ebcffec0746e7129dc56e3a14ada5a6df881ac6b6648"),
    (["table", "f", "--param", "a=1.47", "--format", "csv"], 0, "7466641cdb264929915c78159f9c0e7a458b83166829ff2d97330070e0ec6e95"),
    (["table", "h", "--param", "p=0.5", "--format", "csv"], 0, "1dfb9eb30da99b0a4e0623fc74714cf78b2ecc74becf4141e2ff4a4da0f3d4a0"),
    # 2F1(1/2,1/2;1;x) diverges logarithmically at 1: the default grid's
    # last point exceeds the term cap (exit 2, empty stdout)
    (["table", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "--format", "csv"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["table", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "--format", "csv", "--hi", "0.5"], 0, "5200421bd2331a322ed3ae73b014eb246f1005b4ccf5fd53f40671e78f79ad4e"),
    # verify on grids other than the default, so that the geometric
    # tails, the midpoint and the de-duplication of inequality_grid are
    # pinned; the sum-bounds grid has no tails (span < 1), and k-envelope
    # at p = 0.1 scans up to hi = 0.9, below x_p
    (["verify", "all", "--lo", "0.1", "--hi", "0.9", "--offset", "1e-3", "--format", "csv"], 0, "4c1846f7ca4185a1cd89eed03a319802c74244e2e9198a8d38ed5223c54439e0"),
    (["verify", "sum-bounds", "--offset", "0.01", "--format", "csv"], 0, "81a577d5dcabeea493e1442263ef88efdf28cb858a64cf96abf32f47e21903d1"),
    (["verify", "weighted-sum", "--p", "1.5", "--lo", "0.25", "--format", "csv"], 0, "8db6799726ee7b8237cd7935612f66abedc3066a0c4116741008e57e2f0770bc"),
    (["verify", "k-envelope", "--p", "0.1", "--offset", "1e-6", "--format", "csv"], 0, "7ad0ef54a7d1c95bd8b7d80c0e5cb880f2285b15685c9e4584733955d45e4f35"),
    # certify without refinement and with four levels of it, so that the
    # scan's refine levels other than the default two are pinned
    (["certify", "thm1-convex", "1.4715692950422916", "--refine", "0"], 0, "c134ebdcb949e623134da2785a2fc53874c4f7c3ec76fe4a6c76ac1a6fef1a18"),
    (["certify", "thm1-convex", "1.4715692950422916", "--refine", "4"], 0, "912cfecb6803acd8683e2fa76296cccf3822173d8c9929ec18f72ebb61a84047"),
    (["certify", "thm3-logconvex", "0.0", "--refine", "0"], 0, "a44de45ed51db7b01004308b1ec32765c9bed18855ad47a1e2a091c95c95b3a4"),
    (["certify", "thm3-logconvex", "0.0", "--refine", "4"], 0, "ea0760815c495f7b9eb3e7070ad56e50efd94d0ff95ac7553b34fa7b333e4290"),
    # verify below the claimed range (a failure witness at the first grid
    # point, then an interior one), the concave weighted-sum regime with
    # its upper clause tight, the one-clause product-pair regime and a
    # seeded mean-chain run, so that each check's reduction is pinned
    (["verify", "sum-bounds", "--a", "1.3", "--format", "json"], 1, "d25a8b68622020f998a7377613ee660435406f4dc0e20ae6c8d6ce46f064e310"),
    (["verify", "sum-bounds", "--a", "1.45", "--format", "csv"], 1, "1ed444551799142e05350a0a31dc8dba38e8e35dc90c1e83da63691410fd0bb4"),
    (["verify", "weighted-sum", "--p", "0.3", "--format", "csv"], 0, "50f58ad4f13147d7f20d6690352ff3fc5e78e7f9dcfbdde5325f84c37b23cf02"),
    (["verify", "product-pair", "--p", "0.1", "--format", "csv"], 0, "256719d944776a30f2d213d78df70af9589dcef4df52261ba6c23eaa6786691a"),
    (["verify", "mean-chain", "--p", "1.2", "--seed", "7", "--format", "csv"], 0, "db5969e936b01535329d64b0914a5f639575812855b70d2fd8751aed4d37229f"),
    # eval of every parametrised function in csv and text, and an eval
    # whose second point is outside K's domain (exit 2, empty stdout);
    # re-pinned, with eval's json above, when eval stopped taking grid
    # options: only the manifest's n moved, from 500 to the default 10000
    (["eval", "f", "--param", "a=1.47", "0.1", "1/2", "0.999", "--format", "csv"], 0, "7e9cb218af7338e549964d96a9935517bb21e03797c8fb83b3242f0b1ac2c7db"),
    (["eval", "h", "--param", "p=7/32", "1e-9", "0.5", "0.9", "--format", "csv"], 0, "fa37eb06479513eaed6fe46d9d5ecc96e3c66e5dc84636f4e9e689972182bd9e"),
    (["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "0.1", "0.5", "0.9", "--format", "csv"], 0, "97c1f2585b2df80f1c0c9aed0a9cabd74d1601ccc13f555ffdb0704a2170692b"),
    (["eval", "J", "--param", "p=0.5", "0.01", "0.5", "0.99", "--format", "csv"], 0, "ad73e41985e17e24b3267f5f915eeab166c4436c1c65fe5888586ed58f7d9329"),
    (["eval", "L", "--param", "p=0.1", "0.01", "0.5", "0.99", "--format", "csv"], 0, "3c9c9c127c8769cca1c8e7df88690b52c0ca2d4509adb1ee5b25e4002ca6142d"),
    (["eval", "f", "--param", "a=1.47", "0.1", "1/2", "0.999", "--format", "text"], 0, "1b546d19cab7353ae9e55d5d76b32b11eb2e7606f26e03ccace03c62191829fa"),
    (["eval", "h", "--param", "p=7/32", "1e-9", "0.5", "0.9", "--format", "text"], 0, "3b0d736f9c0cdd13b92674e45fd44665f643482a261ec80ce30afa47da3656e6"),
    (["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "0.1", "0.5", "0.9", "--format", "text"], 0, "ce4e1d9d31c4687bb6b3cf8698425affb282aba466f37453b5ae732a67f123c2"),
    (["eval", "J", "--param", "p=0.5", "0.01", "0.5", "0.99", "--format", "text"], 0, "0544d14a40b909192088c1467337f759400e702d94d470a8e3900b959bfebaeb"),
    (["eval", "L", "--param", "p=0.1", "0.01", "0.5", "0.99", "--format", "text"], 0, "c19c31d48201faff4c7a03960c4b816e5140a1d639e9933b5dd710ef0ec7b98f"),
    (["eval", "K", "0.5", "1.5"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the w_plus and J tables in json and text, both spacings
    (["table", "w_plus", "--spacing", "uniform", "--format", "json"], 0, "10402245f9726944e5c449aec2be93cffdca6e601604ccd0a5d3571243e908c7"),
    (["table", "w_plus", "--spacing", "geometric", "--format", "json"], 0, "0eb1fbdbc279f774b2461f8dd9dbc5f6d20e2072618e89f90389cc4fdb287567"),
    (["table", "w_plus", "--spacing", "uniform", "--format", "text"], 0, "f1d718cf5d3d5112e4b72f40ac0ad8fd5d9804a9d7bf34243b5402ffd9c612dc"),
    (["table", "w_plus", "--spacing", "geometric", "--format", "text"], 0, "105c2ee667931f6b6156d6e30ad4382c8633d784d1e047d4ded7c10c58f1eb2c"),
    (["table", "J", "--param", "p=0.5", "--spacing", "uniform", "--format", "json"], 0, "40960c10965a1b0e69984f5774ef3b0dae48312cad6a3ff0348543d4d49d3da5"),
    (["table", "J", "--param", "p=0.5", "--spacing", "geometric", "--format", "json"], 0, "06dbd1c3fbc8ce126569ba2853dd7b6065ef4c91d6a883471d58ade4aabe3648"),
    (["table", "J", "--param", "p=0.5", "--spacing", "uniform", "--format", "text"], 0, "a35e607ad4616c55d015519055c4513929dbacfb5bac749033478c048a06a837"),
    (["table", "J", "--param", "p=0.5", "--spacing", "geometric", "--format", "text"], 0, "c77fad3c0d83b887941cc4c54fff40c70d2943cc327f8c42f5876e47bb69eb12"),
    # verify all on grids where the pairing checks keep points above 1/2
    # (lo + hi != 1), on the smallest grid (its own --grid-n: tails and
    # the midpoint only) and on a grid that ends at 0.3 and 0.7
    (["verify", "all", "--lo", "0.3", "--hi", "0.9", "--format", "csv"], 0, "7dd6d629dba349f94824f79e0348ccd1c512ff3d76f475749df1c820d2d77327"),
    (["verify", "all", "--grid-n", "2", "--format", "csv"], 0, "276e8fa14ae0c90695258fec73893d3578f024693541beecc624b869fcc7fb36"),
    # (re-pinned when the pairing checks came to scan each pair once: the
    # last point 0.7 is dropped, since its mirror 0.30000000000000004 is
    # not below the first point 0.3, so the sum-bounds and weighted-sum
    # upper maxima come from the point 0.3 alone and move by 8.9e-16 and
    # 2.2e-16; no verdict, witness or equality point moves)
    (["verify", "all", "--offset", "0.3", "--format", "csv"], 0, "cbdd8e3466159259e2708dc5b45ded2c18922d413123b4f74e7db0eebbe96008"),
    # verify all on a grid that starts just below 1/2: the pairing checks
    # skip the points whose mirror lies among the scanned ones, and the
    # equality band around 1/2 is still the one point 1/2
    (["verify", "all", "--lo", "0.49999", "--hi", "0.6", "--format", "csv"], 0, "206514f752760f0a4d7114083fb7b8b58a5517e575965ff81ef16817ec2c0b93"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_digest(capsys, argv, code, digest):
    assert cli.main(argv if "--grid-n" in argv or argv[0] == "eval" else argv + GRID) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
