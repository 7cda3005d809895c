package credit2

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
)

// mustRegister registers id in l and returns its handle.
func mustRegister(t *testing.T, l *Ledger, id string) *Account {
	t.Helper()
	a, err := l.Register(id)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRegisterAndDefaults(t *testing.T) {
	l := NewLedger()
	a := mustRegister(t, l, "a")
	if a.credit != CreditInit {
		t.Fatalf("initial credit = %d, want %d", a.credit, CreditInit)
	}
	if l.accounts["a"] != a {
		t.Fatal("Register's handle is not the ledger's account")
	}
	if l.Len() != 1 {
		t.Fatalf("len=%d, want 1", l.Len())
	}
}

func TestRegisterErrors(t *testing.T) {
	l := NewLedger()
	mustRegister(t, l, "a")
	if a, err := l.Register("a"); err == nil || a != nil {
		t.Fatalf("double register = %v, %v; want an error and no handle", a, err)
	}
}

// TestUnknownEntity: a nil handle, a handle registered in another
// ledger and an unregistered one all burn as an unknown entity, and
// leave the ledger's balances alone.
func TestUnknownEntity(t *testing.T) {
	l := NewLedger()
	if _, err := l.Burn(nil, 1); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("burn of a nil handle: err = %v", err)
	}
	other := mustRegister(t, NewLedger(), "x")
	if _, err := l.Burn(other, 1); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("burn in another ledger: err = %v", err)
	}
	if other.credit != CreditInit {
		t.Fatalf("foreign burn charged the account: credit = %d", other.credit)
	}
	a := mustRegister(t, l, "a")
	l.Unregister(a)
	if _, err := l.Burn(a, 1); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("burn after Unregister: err = %v", err)
	}
}

func TestBurnDefaultWeight(t *testing.T) {
	l := NewLedger()
	a := mustRegister(t, l, "a")
	c, err := l.Burn(a, 1000*simtime.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if c != CreditInit-1000 {
		t.Fatalf("credit = %d, want %d", c, CreditInit-1000)
	}
}

func TestBurnNegativeRuntime(t *testing.T) {
	l := NewLedger()
	a := mustRegister(t, l, "a")
	if _, err := l.Burn(a, -5); err == nil {
		t.Fatal("negative runtime accepted")
	}
}

func TestResetEpochTriggersOnThreshold(t *testing.T) {
	l := NewLedger()
	a := mustRegister(t, l, "a")
	b := mustRegister(t, l, "b")
	// Burn "a" past CreditInit - CreditMin: triggers an epoch.
	over := simtime.Duration(CreditInit - CreditMin + 1)
	ca, err := l.Burn(a, over)
	if err != nil {
		t.Fatal(err)
	}
	// a received the new allocation on top of its (negative) balance.
	wantA := CreditMin - 1 + CreditInit
	if ca != wantA {
		t.Fatalf("a credit = %d, want %d", ca, wantA)
	}
	// b is clipped at CreditInit (no hoarding).
	if b.credit != CreditInit {
		t.Fatalf("b credit = %d, want clip at %d", b.credit, CreditInit)
	}
}

func TestUnregister(t *testing.T) {
	l := NewLedger()
	a := mustRegister(t, l, "a")
	l.Unregister(a)
	if l.Len() != 0 {
		t.Fatal("entity not removed")
	}
	l.Unregister(a)   // idempotent
	l.Unregister(nil) // no-op
	// A handle of another ledger does not unregister this ledger's
	// entity of the same name.
	b := mustRegister(t, l, "b")
	l.Unregister(mustRegister(t, NewLedger(), "b"))
	if l.Len() != 1 || l.accounts["b"] != b {
		t.Fatal("a foreign handle unregistered an entity")
	}
	// The name is free again once unregistered.
	mustRegister(t, l, "a")
}

// Property: credits never exceed CreditInit, and every burn lowers the
// burning entity's credit by its runtime, or by that less one new
// allocation when the burn starts an epoch.
func TestLedgerInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		l := NewLedger()
		const entities = 4
		var accts [entities]*Account
		for i := range accts {
			a, err := l.Register(string(rune('a' + i)))
			if err != nil {
				return false
			}
			accts[i] = a
		}
		for _, op := range ops {
			a := accts[int(op)%entities]
			ran := simtime.Duration(op) * 1000
			want := a.credit - int64(ran)
			if want < CreditMin {
				want = min(want+CreditInit, CreditInit)
			}
			if c, err := l.Burn(a, ran); err != nil || c != want {
				return false
			}
			for _, acct := range accts {
				if acct.credit > CreditInit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
