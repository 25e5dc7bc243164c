package main

// sizedDigests pins the RWT2 SHA-256 of the sized gen-cold cells, which
// golden_traces.json does not cover. TestPins recomputes them straight
// from the emulator.
var sizedDigests = map[string]string{
	"qsort-20000/8pe/par": "85ea28bf8c5d0a59c0687aa696b6cc220b1418f968b17d6d9f4af42d28b0a6f9",
	"matrix-32/1pe/seq":   "38313d291329ecb46c38f9407aa71b689e759c8fbb02cc8b687898aba4f8abd8",
	"matrix-32/8pe/par":   "5f99c68c8cad750b9f1669d2764b1b06831cc1f68b44c05628a7b1cce06849c6",
	"nrev-600/1pe/seq":    "660aa6cea381bd3b897f6ec21f8455d4aef0dd11382a314a7e45705ddfdadc6d",
	"nrev-600/8pe/par":    "1d2d92db1b70b9628416cab6a6449cdb46dc6f97adcb75b064bb19dd691f8b61",
}

// sweepDigests pins the SHA-256 of each sweep driver's rendered text.
// TestPins checks that each equals the same driver's output with no
// trace store attached.
var sweepDigests = map[string]string{
	"fig2":      "bf09606910825823b5a38961149d0243cc45675757499c602bdbae8b34acdf59",
	"table2":    "2f3d2855df58ca0ba7f54517034734c94db0882bd37114004c0714a85b15f35e",
	"table3":    "794f9c7a45128024dea11ca3d35ad20a77af9271611108a0299ed76bdf1bcd14",
	"fig4":      "7853b5271105703b2149c1b5c61b73c4c7ea3165c072f2f3a71a4600d8af20a0",
	"mlips":     "15a8d17c6b829e2ba549ba508ce3b48f3b9ba402a29bd5a59af3bdc1356abbbd",
	"bus":       "64fc1d0519cc5c8d68bbcdc9878655fa94ac74fea986e9b28156e2688a682658",
	"ablations": "61da8eeeefeea40019fd155db4c9c0b8ee1477daa7c78d4a92b67c1fe795d769",
}
