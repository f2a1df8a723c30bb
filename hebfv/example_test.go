package hebfv_test

import (
	"fmt"
	"log"

	"repro/hebfv"
)

// The complete flow — context, encryption, homomorphic arithmetic,
// decryption — through the facade alone.
func ExampleNew() {
	ctx, err := hebfv.New(
		hebfv.WithInsecureToyParameters(), // demo speed; use WithSecurityLevel(109) for real parameters
		hebfv.WithSeed(1),                 // deterministic for the example
	)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := ctx.EncryptValue(3)
	b, _ := ctx.EncryptValue(5)
	sum, _ := ctx.Add(a, b)
	prod, _ := ctx.Mul(a, b)
	s, _ := ctx.DecryptValue(sum)
	p, _ := ctx.DecryptValue(prod)
	fmt.Println("3 + 5 =", s)
	fmt.Println("3 * 5 =", p)
	// Output:
	// 3 + 5 = 8
	// 3 * 5 = 15
}

// Slot-level rotation: slots form a 2 × (N/2) matrix; RotateRows shifts
// each row, and the facade derives the Galois keys on demand.
func ExampleContext_RotateRows() {
	ctx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	ct, _ := ctx.EncryptSlots([]uint64{10, 20, 30, 40})
	rot, err := ctx.RotateRows(ct, 1) // each row left by one
	if err != nil {
		log.Fatal(err)
	}
	slots, _ := ctx.DecryptSlots(rot)
	fmt.Println(slots[:4])
	// Output:
	// [20 30 40 0]
}

// InnerSum replicates the total of every slot into all slots — the
// rotate-and-add ladder under one call.
func ExampleContext_InnerSum() {
	ctx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	ct, _ := ctx.EncryptSlots([]uint64{1, 2, 3, 4, 5})
	total, err := ctx.InnerSum(ct)
	if err != nil {
		log.Fatal(err)
	}
	slots, _ := ctx.DecryptSlots(total)
	fmt.Println(slots[0], slots[17])
	// Output:
	// 15 15
}

// Key material moves between contexts as one versioned blob: exporting
// without the secret key yields an evaluation-only context — the server
// half of the deployment model.
func ExampleContext_ExportKeys() {
	client, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithSeed(4),
		hebfv.WithRotations(1), // the server may rotate by one step
	)
	if err != nil {
		log.Fatal(err)
	}
	publicKeys, _ := client.ExportKeys(false)

	server, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithKeySet(publicKeys),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("server can decrypt:", server.CanDecrypt())

	// Client encrypts, server evaluates, client decrypts.
	ct, _ := client.EncryptSlots([]uint64{7, 8, 9})
	blob, _ := ct.MarshalBinary()
	onServer, _ := server.UnmarshalCiphertext(blob)
	rotated, err := server.RotateRows(onServer, 1)
	if err != nil {
		log.Fatal(err)
	}
	back, _ := rotated.MarshalBinary()
	result, _ := client.UnmarshalCiphertext(back)
	slots, _ := client.DecryptSlots(result)
	fmt.Println(slots[:3])
	// Output:
	// server can decrypt: false
	// [8 9 0]
}

// Backends are selected by name through the registry; the "pim" backend
// evaluates on the simulated UPMEM system and reports modeled kernel
// time.
func ExampleWithBackend() {
	fmt.Println(hebfv.Backends())
	ctx, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithSeed(5),
		hebfv.WithBackend("pim"),
		hebfv.WithPIMDPUs(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := ctx.EncryptValue(20)
	b, _ := ctx.EncryptValue(22)
	sum, err := ctx.Add(a, b)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := ctx.DecryptValue(sum)
	launches, _, _ := ctx.PIMReport()
	fmt.Println("20 + 22 =", v, "in", launches, "kernel launch(es)")
	// Output:
	// [auto dcrt-native pim schoolbook]
	// 20 + 22 = 42 in 1 kernel launch(es)
}
