package frame

import "testing"

func TestStringers(t *testing.T) {
	if TypeData.String() != "Data" || TypeACK.String() != "ACK" || TypeBeacon.String() != "Beacon" ||
		TypeRTS.String() != "RTS" || TypeCTS.String() != "CTS" {
		t.Error("type names wrong")
	}
	if Type(9).String() != "Type(9)" {
		t.Errorf("unknown type: %s", Type(9))
	}
	if AddressAP.String() != "ap" || Address(3).String() != "sta3" {
		t.Error("address names wrong")
	}
	if ControlWTOP.String() != "wTOP-CSMA" || ControlTORA.String() != "TORA-CSMA" || ControlNone.String() != "none" {
		t.Error("scheme names wrong")
	}
	if ControlScheme(7).String() != "ControlScheme(7)" {
		t.Error("unknown scheme name wrong")
	}
}
