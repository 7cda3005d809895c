package credit2

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
)

func TestRegisterAndDefaults(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	if c := l.accounts["a"].credit; c != CreditInit {
		t.Fatalf("initial credit = %d, want %d", c, CreditInit)
	}
	if l.Len() != 1 {
		t.Fatalf("len=%d, want 1", l.Len())
	}
}

func TestRegisterErrors(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Register("a"); err == nil {
		t.Fatal("double register accepted")
	}
}

func TestUnknownEntity(t *testing.T) {
	l := NewLedger()
	if _, err := l.Burn("x", 1); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("Burn err = %v", err)
	}
}

func TestBurnDefaultWeight(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	c, err := l.Burn("a", 1000*simtime.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if c != CreditInit-1000 {
		t.Fatalf("credit = %d, want %d", c, CreditInit-1000)
	}
}

func TestBurnNegativeRuntime(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Burn("a", -5); err == nil {
		t.Fatal("negative runtime accepted")
	}
}

func TestResetEpochTriggersOnThreshold(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Register("b"); err != nil {
		t.Fatal(err)
	}
	// Burn "a" past CreditInit - CreditMin: triggers an epoch.
	over := simtime.Duration(CreditInit - CreditMin + 1)
	ca, err := l.Burn("a", over)
	if err != nil {
		t.Fatal(err)
	}
	// a received the new allocation on top of its (negative) balance.
	wantA := CreditMin - 1 + CreditInit
	if ca != wantA {
		t.Fatalf("a credit = %d, want %d", ca, wantA)
	}
	// b is clipped at CreditInit (no hoarding).
	if cb := l.accounts["b"].credit; cb != CreditInit {
		t.Fatalf("b credit = %d, want clip at %d", cb, CreditInit)
	}
}

func TestUnregister(t *testing.T) {
	l := NewLedger()
	if err := l.Register("a"); err != nil {
		t.Fatal(err)
	}
	l.Unregister("a")
	if l.Len() != 0 {
		t.Fatal("entity not removed")
	}
	l.Unregister("a") // idempotent
}

// Property: credits never exceed CreditInit, and every burn lowers the
// burning entity's credit by its runtime, or by that less one new
// allocation when the burn starts an epoch.
func TestLedgerInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		l := NewLedger()
		const entities = 4
		for i := 0; i < entities; i++ {
			if err := l.Register(fmt.Sprintf("e%d", i)); err != nil {
				return false
			}
		}
		for _, op := range ops {
			a := l.accounts[fmt.Sprintf("e%d", int(op)%entities)]
			ran := simtime.Duration(op) * 1000
			want := a.credit - int64(ran)
			if want < CreditMin {
				want = min(want+CreditInit, CreditInit)
			}
			if c, err := l.Burn(fmt.Sprintf("e%d", int(op)%entities), ran); err != nil || c != want {
				return false
			}
			for _, acct := range l.accounts {
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
