package main

// pinnedDigests are the result digests of the unmodified program at
// the default seed (1): testutil.JSONDigest of experiments.Harvest for
// the simulator workloads, and of the list of per-cell digests of the
// library's own results for the service workloads (all 216 batch cells;
// the first pinnedPreviewCells preview cells). A change that alters any
// simulated outcome fails every operation of the workload at seed 1.
var pinnedDigests = map[string]string{
	"fig8b_ccfit":      "22b24312cc8e3d1658ea8411a10eaab75125761a6a70083cfa6a50d12c11c52a",
	"x512_par2":        "c1ff1674a154cdc56d30ca34bbef842c827af3df76886ad1cc224b25550b59f1",
	"campaign_batch":   "86d9003e5722718d92b99739c80732b5e2c14d9076f5d7a8a6d26b988ec2b251",
	"campaign_preview": "53dc614b4116823e3e8cc356cb192e7940753b5b97153aef916316f2226f3789",
}
