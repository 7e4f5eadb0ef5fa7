"""Golden outputs: SHA-256 digests of stdout for a fixed set of invocations.

A refactor that claims unchanged behaviour must leave every digest and
exit code here as it is, and every output replays byte for byte through
``cli.run_from_manifest`` on the manifest it embeds.  The set covers
certify at, just below and just above each sharp threshold, verify
all, verify checks that fail (exit 1) or run in their other regimes,
the k-envelope check below 1/4 (whose grid ends at min(hi, x_p); with
lo above x_p it exits 3, which test_cli.py checks), verify on narrowed
grids (whose tails and midpoint differ from the default) and both table spacings, all on a
500-point grid; every output format: json and csv tables, constants and
verify all (str and None cells), eval's json, eval of every function
with parameters in csv and text, and the w_plus and J tables in json
and text; and one csv table of every function `table` offers.  An argv
that sets its own --grid-n runs on that grid, and an argv that reads no
grid size as it stands: eval, and verify mean-chain, whose pairs reach
only the interval's ends.  To re-pin after a
deliberate output change, print hashlib.sha256(stdout.encode()).hexdigest()
for each argv.  The eight verify all digests were re-pinned when the
gamma identity columns became their raw residuals: only the
k_half_closed_form, k_half_squared and gamma_reflection cells moved.
Every digest with output was last re-pinned when the manifest lost its
refine depth and moved the seed into verify's parameters: no other byte
moved.  The mean-chain digest was re-pinned when its selector stopped
taking --grid-n: only the manifest's n moved, from 500 to the default 10000.
The nine cor14 and cor15 certify digests, and the ten cor14 and cor15
argvs of BENCH_SEED_1's certify workload, were re-pinned when those
theorems came to scan the brackets J/x^2 and L/x in place of J and L:
their margins and witnesses moved, and none of their verdicts.

BENCH_SEED_1 pins the sha256 of the exit code, stdout and stderr of every
benchmark argv of seed 1 (bench/cases.py), run in-process as the
benchmark runs it: 68 commands of certify, verify and table at their full
grid sizes, which a change that claims the benchmark's outputs unchanged
must leave as they are.
"""

import hashlib
import json

import pytest

from ellipcert import cli

GRID = ["--grid-n", "500"]

# (argv without the grid option, exit code, sha256 of stdout)
GOLDEN = [
    (["certify", "thm1-convex", "1.4515692950422916"], 1, "4a52dd2a54a6f52b55a0dd24b76219f79f0365d4a2b96603931a9223e44abca5"),
    (["certify", "thm1-convex", "1.4615692950422916"], 0, "34f874cab52890652358b03710ab88ca39f4f8db8a8c4df512cad8e21a1c902c"),
    (["certify", "thm1-convex", "1.4715692950422916"], 0, "4871cbd2497171a15ad1b018c862ae6c78ff728ce8c31fa2e193cc90c7d938c7"),
    (["certify", "thm1-concave", "1.3233333333333333"], 1, "6aaca6cfeb62353201d117f24dde18db5956d00351b3197a5661dea8ffe894ce"),
    (["certify", "thm1-concave", "1.3333333333333333"], 0, "43f772139f5e2d7ec57b66a129fb90255f7a4c3e3dc376612624b46b88ed4a53"),
    (["certify", "thm1-concave", "1.3433333333333333"], 1, "0b4e346fa163f9a1456dae9564739153a596eb44770f344402a0b235d0329ad6"),
    (["certify", "thm2-convex", "1.3762943611198906"], 0, "314bc70cad7b6a3acf63aeb259990508c39a206d0f09bddb1c68a0ba837808f8"),
    (["certify", "thm2-convex", "1.3862943611198906"], 0, "3398f3c2c389d553bc1eeeb7d52580ebf7fb889645db5b23ddbf4ac06f73f90a"),
    (["certify", "thm2-convex", "1.3962943611198906"], 1, "c0749f089b429d616bb6b91530131a4191ee7451f09e47cb0174f9bb32828031"),
    (["certify", "thm2-concave", "1.59"], 1, "c06fef5f0917a214d17375948475758070873ca81db10fce07eee0bceef021f8"),
    (["certify", "thm2-concave", "1.6"], 0, "e9c67daad825edc84cfc6388cf005265965615f3c54860a39fcd66a10716d0ef"),
    (["certify", "thm2-concave", "1.61"], 0, "536384ce2245d72b0d78e55bfa2d4aff0962f1fc4b1c14bf749b7c4155dc88b4"),
    (["certify", "thm3-logconcave", "0.20875"], 1, "b9b2d966ec09c8e5d18bdd976bb40525d50ccaa5b9be73a2a2a67088e8c306e5"),
    (["certify", "thm3-logconcave", "0.21875"], 0, "00059a507c509622e3792675617c6e51c6ae18cfe0aa6b5573064d64032b67a4"),
    (["certify", "thm3-logconcave", "0.22875"], 0, "afcfea7f2ee13eae663ae9cf69e1bec119df8525deb8a015a2376e21ab2ffe14"),
    (["certify", "thm3-logconvex", "-0.1"], 0, "411442326da53a8bba8ff3231efc45dc7fa5df1eb0a391a8f4ddbaa5a6874c1f"),
    (["certify", "thm3-logconvex", "0.0"], 0, "69efcd1d312f2fdd291dc72ff934f4db393b5bc408aee235a201e126927e017f"),
    (["certify", "thm3-logconvex", "0.1"], 1, "779f4e22c85e9585cfc8745872601ea4aca9d65f1e867d60d31fb92b17418f37"),
    (["certify", "cor14-convex", "1.2703300858899105"], 1, "cd06bd2907b5b654a273e385fc94637d0fb38bcf7251fd7393e7a51c31e7de64"),
    (["certify", "cor14-convex", "1.2803300858899105"], 0, "5eff4dab08e75fff8b5f91261185510fb597047b309e5daef25224aa2596cfda"),
    (["certify", "cor14-convex", "1.2903300858899105"], 0, "cab80b0df2ba170108fdcb949437510ee29a7da1339ec1e8d010d1a939d94a74"),
    (["certify", "cor14-concave", "0.2096699141100893"], 1, "2b1d07c5edd34c93dbccda76ed1115ac7843344e457ad0376af05ffb1bee5bc5"),
    (["certify", "cor14-concave", "0.21966991411008932"], 0, "8b686d0930f7fc476d986bd8f45a33b776593b809c611b9da6c232dc35dcf39e"),
    (["certify", "cor14-concave", "0.22966991411008933"], 0, "3fdca4e75c2830c43ac348407341253614eece3117d004836def2420c153d67b"),
    (["certify", "cor15-monotone", "0.24"], 1, "60c87677776b1e2f52f2c4618781c0c40a65efcbc926574b7bf324c7e7804321"),
    (["certify", "cor15-monotone", "0.25"], 0, "41d2fb5ea3ecc9587459828e55dd601eec80989a6f7a9737b15f0c848b7a5e23"),
    (["certify", "cor15-monotone", "0.26"], 0, "8575fc0d190eb7dc04093a24b6d8b48ecbf60a6521b77fe16d923a0a9e08a410"),
    (["verify", "all"], 0, "ef8caca762a0b4c4efab72d38370aa97d966fd39c52d9a68e1542562bd8864e7"),
    (["verify", "k-envelope", "--p", "0.1"], 0, "16dd059656b45f964d7dd31b86a59b76203e8e77e2f1b5e25743c7cb7fe79238"),
    (["table", "K", "--spacing", "uniform"], 0, "e050954e5d18aca27dcc2f7ee43f904a39f0a32ff2528b31d5a7a0eb0ded6f31"),
    (["table", "K", "--spacing", "geometric"], 0, "fb27553caf9b3adc95f1fe1a248c88e649a09397d704ca460dfa89fd30577745"),
    (["table", "K", "--spacing", "uniform", "--format", "json"], 0, "1da601fe2c4b9424d51517fd7fddbec34404f8ea4f73c2e7eca643c50c37fec1"),
    (["table", "K", "--spacing", "geometric", "--format", "json"], 0, "2f75fc8bd6eb0c0aa7446598727445e651c2664753b790b4f9a6aaa39d621bb9"),
    (["table", "K", "--spacing", "uniform", "--format", "csv"], 0, "fbc09c1fb48db8ad2ce37b879e53481ea0685bdfb65dc24636a4cf9ba0b5ad25"),
    (["table", "K", "--spacing", "geometric", "--format", "csv"], 0, "185831a9331dcc1d83b890b3f3686d03b59c38984b395df29077154199c4fb3d"),
    (["table", "G", "--spacing", "uniform", "--format", "json"], 0, "25d16aa1297d05b69ffa479665481149ab1f8a8cc1d7cf818be4a4ffb095e368"),
    (["table", "G", "--spacing", "geometric", "--format", "json"], 0, "d104730347b5189e0960b3ef25c5e3e96db5447c02cea0755765196b94bc10ce"),
    (["table", "G", "--spacing", "uniform", "--format", "csv"], 0, "25512cf9885212a55d0f9837b842745c69aea3a83ef0d69bfa626f08eeda05df"),
    (["table", "G", "--spacing", "geometric", "--format", "csv"], 0, "e8f392e9a12cdf8f4d33d4e41db64735365d556797ac4773ac515ed50f0c188d"),
    (["constants", "--format", "text"], 0, "cbd0225c059888c857df475d1dce2cd629609b5fda3f5518c87ead5f8610e185"),
    (["constants", "--format", "json"], 0, "edb63032191510db9a0e910d597b523a0763e4ca6e0d071b73d3513be2e69152"),
    (["constants", "--format", "csv"], 0, "699009c4ef7328a39478f4cd88eeac21a34d98438969352bf2ec79d6cf9cb90b"),
    (["verify", "all", "--format", "json"], 0, "a78834f89ea8f4642b95c793946cd3f75640e1ebcf444dae711a899a4706a3bf"),
    (["verify", "all", "--format", "csv"], 0, "bfc9cff3186754f1fe5a1d1f4e152568e1bf6d3442f902dde23263f6b52657b3"),
    (["eval", "K", "0.5", "0.9", "--format", "json"], 0, "fbb7a63d2a28bc29cd63eb8fd3c701bf6bb67566e33587db6572930346c3052f"),
    (["table", "E", "--format", "csv"], 0, "d679582d9188bdd35b83025aff0f80bdb45763919799d8085f9d683ac91217ea"),
    (["table", "u", "--format", "csv"], 0, "9bcda76d3110ecc3cff94b3120e0926058f26df5a2a72f29c945e468b152e5cb"),
    (["table", "v", "--format", "csv"], 0, "70e025df1bce562cbcdb501ebac03aa58ce18c6d7f97fd9fe1b42f81a5566cdc"),
    (["table", "delta", "--format", "csv"], 0, "6c7df3182bd1605bfd10ce2369b54eb531745b6d4ec31675994c3366e09a4892"),
    (["table", "w_plus", "--format", "csv"], 0, "048ec715a9bb383e547551afbfd8aa30b663cb4eb73b609665c09d43568dcf98"),
    (["table", "w_minus", "--format", "csv"], 0, "f8a3de1606aea0f9c20ed3f0e0a5e0cd04f3d6a910e7693b08e53d376d5f7025"),
    (["table", "phi", "--format", "csv"], 0, "96e5f7c7b9a3426dcc1d30d6f6d7bc0fc86f920276cc0f94f7fd465dea2450a6"),
    (["table", "J", "--param", "p=0.5", "--format", "csv"], 0, "c33315349b2e172678073fa70869b4e4d3cc0d7058df0a127d5e1c3ff2b0f432"),
    (["table", "L", "--param", "p=0.1", "--format", "csv"], 0, "d73f45e624d7af8dc464ff9c57ed77c487c1531a09bc618d6c4244c88fd804dc"),
    (["table", "f", "--param", "a=1.47", "--format", "csv"], 0, "e4ad179e5578fa6f86f8e379d0a1744bc34591e85f9a681d9d5f69a0ad44e337"),
    (["table", "h", "--param", "p=0.5", "--format", "csv"], 0, "e9c960c39d5272be530fd9eb22c009617d3f376645a23670f797406fa69c9a04"),
    # 2F1(1/2,1/2;1;x) diverges logarithmically at 1: the default grid's
    # last point exceeds the term cap (exit 2, empty stdout)
    (["table", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "--format", "csv"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["table", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "--format", "csv", "--hi", "0.5"], 0, "4c577cf8078e5c08910fd91d344381a601818d2ca1309519693ca1877af3399c"),
    # verify on grids other than the default, so that the geometric
    # tails, the midpoint and the de-duplication of inequality_grid are
    # pinned; the sum-bounds grid has no tails (span < 1), and k-envelope
    # at p = 0.1 scans up to hi = 0.9, below x_p
    (["verify", "all", "--lo", "0.1", "--hi", "0.9", "--offset", "1e-3", "--format", "csv"], 0, "052f97b898e510afb31f1c97bc11ba01d016499e74bf24b715a3b8001feb2309"),
    (["verify", "sum-bounds", "--offset", "0.01", "--format", "csv"], 0, "3e37feb5123445918ae77e84d923153cbd70bcf1365f3d117837f3bc478e38f7"),
    (["verify", "weighted-sum", "--p", "1.5", "--lo", "0.25", "--format", "csv"], 0, "8915533ba5afe71a87edbde1f87c6b658e0c66311b980da5accc1f38047305be"),
    (["verify", "k-envelope", "--p", "0.1", "--offset", "1e-6", "--format", "csv"], 0, "6bfec2b3221c82a333021d9c677d76e0b324b7f075ed31b3f3e350f25d86272a"),
    # verify below the claimed range (a failure witness at the first grid
    # point, then an interior one), the concave weighted-sum regime with
    # its upper clause tight, the one-clause product-pair regime and a
    # seeded mean-chain run, so that each check's reduction is pinned
    (["verify", "sum-bounds", "--a", "1.3", "--format", "json"], 1, "18bb07a940cc11f9ea2a4e42837d07d59dab88166bf6e2964d098ed9d076448f"),
    (["verify", "sum-bounds", "--a", "1.45", "--format", "csv"], 1, "eefa53f8fcd8f592c6627477d6ae0f3d3a9c5222ed00be05a7af251af5b89436"),
    (["verify", "weighted-sum", "--p", "0.3", "--format", "csv"], 0, "7cca550623d26c985677a2cd0e02c72c5134d8ab5f484a58a6fa22b610c69f4e"),
    (["verify", "product-pair", "--p", "0.1", "--format", "csv"], 0, "db586d7e7747799f8fb3799df052c65671486bfe8f7e9baf057da829f901b887"),
    (["verify", "mean-chain", "--p", "1.2", "--seed", "7", "--format", "csv"], 0, "9b6c75e09f74a9e18138cba2946380b39f6933e79c151cd27b25a7843f932fb9"),
    # eval of every parametrised function in csv and text, and an eval
    # whose second point is outside K's domain (exit 2, empty stdout);
    # re-pinned, with eval's json above, when eval stopped taking grid
    # options: only the manifest's n moved, from 500 to the default 10000
    (["eval", "f", "--param", "a=1.47", "0.1", "1/2", "0.999", "--format", "csv"], 0, "0c7df39cff07e7c28e8c78776e087fce80fe0fe48eaf2d707cbbdc0491dbcee6"),
    (["eval", "h", "--param", "p=7/32", "1e-9", "0.5", "0.9", "--format", "csv"], 0, "3473b704fbc385422a922b2a8b688d7b26518b0f8d21aa1a4b0896ab65d64d47"),
    (["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "0.1", "0.5", "0.9", "--format", "csv"], 0, "a97bf460a5c09796d332b6012af97dd27dfda4eb4552423e6924b84682f8ab16"),
    (["eval", "J", "--param", "p=0.5", "0.01", "0.5", "0.99", "--format", "csv"], 0, "4b45724300a5a366cd0f4d2456e505118b1996accf0fa230dc47cff03361e52a"),
    (["eval", "L", "--param", "p=0.1", "0.01", "0.5", "0.99", "--format", "csv"], 0, "12e10dbb62acf805863ae556cb3257467258e1e8a05241398fbf94cfbaefc09f"),
    (["eval", "f", "--param", "a=1.47", "0.1", "1/2", "0.999", "--format", "text"], 0, "d1e19d757fa8a6833683aa10536102c740a309da257be53cd9dd5585f299d0f6"),
    (["eval", "h", "--param", "p=7/32", "1e-9", "0.5", "0.9", "--format", "text"], 0, "145ccf461e1a1c760fc6ecc17f79924d751bfdaa3cbf2993d67f31cabc893234"),
    (["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1", "0.1", "0.5", "0.9", "--format", "text"], 0, "096eda83ea0c6a3fe541e35162c75c27ec7b3ab28405ad308af24266e520e341"),
    (["eval", "J", "--param", "p=0.5", "0.01", "0.5", "0.99", "--format", "text"], 0, "194e6b337d3b19118939dbbdc921bc6cb1e5f38b565979558083c2f4b2a03645"),
    (["eval", "L", "--param", "p=0.1", "0.01", "0.5", "0.99", "--format", "text"], 0, "f9bab125c2c292efebb4a789c2e19e4237b6a9cd73084167f143aa838661d0ef"),
    (["eval", "K", "0.5", "1.5"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the w_plus and J tables in json and text, both spacings
    (["table", "w_plus", "--spacing", "uniform", "--format", "json"], 0, "a082904a795b1925ebec8fddc03fd91d1328bc7463fea6ef58d221f14774d186"),
    (["table", "w_plus", "--spacing", "geometric", "--format", "json"], 0, "cb08367eceef35b627acfff06b9b421d4eeb6cd959f2db8f2585aab8f823397f"),
    (["table", "w_plus", "--spacing", "uniform", "--format", "text"], 0, "f98e15ba3f3cf81d0464e748c733c3ffd16fda55012a84c7fc9ed1e370e8092c"),
    (["table", "w_plus", "--spacing", "geometric", "--format", "text"], 0, "f6d3491b0e57328133ece3e98ab57ed01f0e912616c0aa01574b4ac9688d25b4"),
    (["table", "J", "--param", "p=0.5", "--spacing", "uniform", "--format", "json"], 0, "1010599c097d099e9c5305a7f2e349603960094bed44c071ed912e2c064e3cc6"),
    (["table", "J", "--param", "p=0.5", "--spacing", "geometric", "--format", "json"], 0, "c70d9955c7d1c1350635b34117ddc12d5a2d0016eee839c23877727481c728d0"),
    (["table", "J", "--param", "p=0.5", "--spacing", "uniform", "--format", "text"], 0, "741494df7edd9e7198bb220f2bf4ff77897e223a8c9ed180f7e44f7b4179a1fb"),
    (["table", "J", "--param", "p=0.5", "--spacing", "geometric", "--format", "text"], 0, "e1c84db66976d582913d6256f13d449c20c6ef1d79aee8e63e15797553c96ec3"),
    # verify all on grids where the pairing checks keep points above 1/2
    # (lo + hi != 1), on the smallest grid (its own --grid-n: tails and
    # the midpoint only) and on a grid that ends at 0.3 and 0.7
    (["verify", "all", "--lo", "0.3", "--hi", "0.9", "--format", "csv"], 0, "03167a01527f7bcf71d7923c123a2f8a472536a84cb16ea1014aea4d0d28bddd"),
    (["verify", "all", "--grid-n", "2", "--format", "csv"], 0, "f07fcd16d187c6757ae545981735d8647db8982a79ecbde8c259e2a494f01082"),
    # (re-pinned when the pairing checks came to scan each pair once: the
    # last point 0.7 is dropped, since its mirror 0.30000000000000004 is
    # not below the first point 0.3, so the sum-bounds and weighted-sum
    # upper maxima come from the point 0.3 alone and move by 8.9e-16 and
    # 2.2e-16; no verdict, witness or equality point moves)
    (["verify", "all", "--offset", "0.3", "--format", "csv"], 0, "1bd477e4a56e63cc1db357b6c8f75d178b3df80c382d06afcae34d5989cefd5f"),
    # verify all on a grid that starts just below 1/2: the pairing checks
    # skip the points whose mirror lies among the scanned ones, and the
    # equality band around 1/2 is still the one point 1/2
    (["verify", "all", "--lo", "0.49999", "--hi", "0.6", "--format", "csv"], 0, "46ae790f5e8cf90b382f0871c985a58d1963046eea82f06304b0450846c6c801"),
]


def on_grid(argv):
    """argv on GRID, where it reads a grid size and sets none."""
    reads = (cli._VERIFY_OPTIONS[argv[1]] if argv[0] == "verify"
             else () if argv[0] == "eval" else ("--grid-n",))
    return argv + GRID if "--grid-n" in reads and "--grid-n" not in argv else argv


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_digest(capsys, argv, code, digest):
    assert cli.main(on_grid(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if out:
        fmt = next((v for k, v in zip(argv, argv[1:]) if k == "--format"), "text")
        manifest = (json.loads(out)["manifest"] if fmt == "json"
                    else json.loads(out.splitlines()[0].partition("manifest: ")[2]))
        assert cli.run_from_manifest(manifest) == out


# workload -> sha256 of repr((exit code, stdout, stderr)) of each argv of
# bench seed 1, in the order bench/cases.py builds them
BENCH_SEED_1 = {
    "certify": (
        "e58de38485f29d88f7ba75c3a56e28cf4ae9b69e628be391f633252965984e2a",
        "2e278cb0e4ed088604bc67f7f212dbcf23752aec917731095b3935ba8699afbf",
        "7fbe25975007774fdac93cb6c646021c60a939cd8705f5d8a186830d3810b054",
        "1834258d0a98f79b9d709f943d140c3081c40b54cc789f80b715121c71184f8e",
        "03f08013f663a5a373f2e65fc8ffcbcd0c994e66db686d83589dda092c140991",
        "f3be71b728d479885db23cbf82ac1c01cdb2f16be023addf5882f1e2dc653692",
        "618cd6f3ade7af5e688657c90767b9e5791656ecbd0a94323505c5be46a7edbe",
        "4cdfd8ec8e719940c59c05d6ba4b2124a14b70969664ce26e1c30db636c88464",
        "b1313bfeaee1ae5593bb639b393c95be44b7194cff2a6069106864b4b3731872",
        "5ae57fbd89f3b4e54810e19b31d54e4c2b791249c61e7fe826af0f4d35439289",
        "bcc6eb94e7d6fc9152ed2be1360db1dc9b33675111c8503b12a530a7d90ea9f4",
        "ae7211d1084bd3df0d974319641468cd274026d4ef86a5d9bf4e42982a3021b2",
        "b0901eb1c1492af9ccbf72672cf2733d36b5639b038840aba51c15557d2d354b",
        "2e9df7e214b5dfc0e7036382d8891eff3a257190490a439095fba07e1c46af59",
        "214a071cd5fba39d86bf5e691a351f53c8aa1892f0bb390282d6a753156be1f2",
        "7bf257b148ab38bc3ee90768c554d35b591c0596fd4369b2319ec10381e7af51",
        "aee722b6f9fc0ad81b82964653dcbae7eb59116700e60a880c2afc6264c6a2f9",
        "fa40b8bfe310b2988fd5f69a8ba735567428ef1778eecbc76afee430b9893892",
        "b6700ab5ccf7bd17c461621f7f27e64a4e6052429f507acb8b15232a4e15e144",
        "022f2c3a4fcf11d1bebdad50b03f73c467a51c5bd3af27c0739471caa50c5c01",
        "b1058f027484aff06ad1055f43d9c5c5c7a269fa9721222e2668b3c6dcf1f7ee",
        "4326cff83063ec67782c49e2c068bd4e2d56616652ca5c2d2ff21b8c2de6d349",
        "92364e6a93342ad6d6e3a7382d3718aa9f90b9962bac9a119d6beeb506162288",
        "8875516b91b53c983536beda6139e4c316344c48fe0bab581d1fe50323b44ca1",
        "58a13e514dca0f90e3e04ba600667e5c8518b349c14a800f301aab81cbee0d5b",
        "c79eb2401c46630cec27f64cab98a8c5d371ab680ecfcda8ab9e853ba91f727d",
        "7c7e5c5a47caafd420a49d2bb429d2198101d535fe3b14263cbaad8063970054",
        "948d1fb73deef2c858c9bd120838aacc8a0ce4a406339174a5a4da478bfbb526",
    ),
    "verify": (
        "7bf4e1360796e6603863b4cb4bca0a5827baab1a4edb89e16b158846e173fa20",
        "783fb05c312341cda45ef8649da9a4a4955eafb5cc5d98fca6de2de15ef4fdd0",
        "836d3319142382abcdc39d7118c1fc667bf61ae996e90f8d73227a1daa45495f",
        "e94f247803034c91f1628b8f7ae7bcd98a7f4c8b78292cbbd3c221df8bae3d89",
        "557c9d258689f637197296519f54f3e929afdf95159b1071c62c03b5120d97da",
        "64f7ca5da952a1e433fde5df09b9dc87edb89ff2fdbc5973175c213882c8b8e8",
        "4f095107541d92d3da62ebd9df71b018e3406b753ac5111d58af033387971bd0",
        "754547d0b7312e41ff5ad65de0141d1cc9334f503ef3f2108dc9e7688a2a5d60",
        "e9fc3de71e2fc95d6bdb35691a79d320ce59d73101e002c0a0bb4d90b688b66f",
        "eac82a5e45acf61c131a768aa129b9b27951cdf7b494c206d5b607f65eadbe03",
        "bff7987abb6be0eac5958908b1efcca3371d62574a75f9e87f3eb6eee941c553",
        "9b1ac8dec32cf97188de8b19ea0bb063c7094101674fec58a6db073dd0e728cc",
        "8b515371cda00ed280a1eaeba87a530abe95af2a861d6925221fcedfed5c1170",
        "fc24279969397bb397fd427eff34ce20b22e0610663bda6be7ccbc81f324b625",
        "3139ae1cf26aad65eab300900c8f09eadd2922c24bbbbfe4054985c5b73ee103",
        "1fe1bdc3a9a1224c1c9b4765eebd13234b6938467c1490ab0189e258043dc88b",
    ),
    "table": (
        "8807f965dbc6ebe27273716fedc49dfc5fdf35ddc48d9001ce8c1611643291de",
        "7e6b8fa0d2d1f3612b170b7743134cdc0e3ff0c1ae001c5c8981e4f36643b84d",
        "20f1bb7469384734b2963ca517e66bacfcacd50c8754db0d4f0ca7446b44773a",
        "faca2a9b97da8a0ebf540e22ada7974f60176742795bb8e838a9ff948d3aee8a",
        "f349263e4ff0bf85bacdbce89a28ebd5b43230f3b450efd9965ffd78a61e8717",
        "47d4ae85fa252ed73641ccb70bebe148b315b0aa843d17c820fba4fa415364dd",
        "aadcc0c737756d306cc6bf1bed82c3492a0c844acccf8fa7c6fe432eb60dfc5f",
        "798fa66e362a058579eec4284f2043eafd8c2ce7e081ba1a7024e609f9dc9522",
        "00d872742932a806d62c0e4e5837328397ff11dabaa0eba70c434c1e355ec6a0",
        "23c9d3bf832b1ec33bc3090c944e4de82c0c3b09f22834a6f690b14cc8aa537b",
        "d70aceed05c2e7f0242033360d45aeb4fb5cd3dc4bc6ac8b128ddad7a62d6233",
        "1bfcb65ece681585115a1a7bcfeeda690e00b54389026ce7b72706f4f57f8a0f",
        "d1379449da2ad0c6c4c11a9fb2e9ded3fb96ef983ec029eecd80ca679bf33827",
        "e240eead8116ddb9631168f9c851e710b3c61e5b4d7ab775403c30224491fbeb",
        "4e0133404234d9d6d5662c86c3b59d89dd30b36ccd8f2bc103e7d2c129f88f35",
        "eb7957976a2e0f7d145c4c27c43ee4b2e44ac55eeeacbbdcb4f2e8564a9964d8",
        "058c678d676c0bf5408225a7c8497181ce911b0da5c42247570760c3cf5e7f63",
        "d3b56838028e821acfc274c72e82dc1f58ba5c2162b8a361b619d9f3b40e43ee",
        "1b1d7b477208d920ede2d0aa508693337263d5e27e5b119ed3698b947317c643",
        "4f042a832865ec307cbf815b570abd83a92d3775da7f5eee11b48b44a7a898b0",
        "fa875abc802fca24d77b5fc39d66b4ffa22cf4b625dffdcd60d88026de44010a",
        "e1d2da42d76725a535089e6bc2976608edb478c2f5598982d0c9b40d46b1a9bf",
        "c24e27cf651522196ab108935b26a4cdc429b40319bb2918578d457e56f8bb37",
        "ae582e12b8abb8937c4a660e2bcef86867fe2cd77b5209bd5ef6180b9b693e95",
    ),
}


def bench_seed_1_digests(capsys, bench_cases, workload):
    """The digests of BENCH_SEED_1[workload], as the package gives them now."""
    digests = []
    for case in bench_cases.build(workload, 1):
        code = cli.main(list(case.argv))
        out, err = capsys.readouterr()
        digests.append(hashlib.sha256(repr((code, out, err)).encode()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("workload", BENCH_SEED_1)
def test_bench_seed_1_digests(capsys, bench_cases, workload):
    assert bench_seed_1_digests(capsys, bench_cases, workload) == BENCH_SEED_1[workload]
