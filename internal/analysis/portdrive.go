package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PortDrive flags a direct write (Set, SetU64, SetBool) to one of a
// stbus.Port's 16 channel signals outside package stbus. A Port remembers
// each channel's last drive so that re-driving an idle or waiting channel
// schedules nothing; that cache is exact only while DriveCell, IdleReq,
// DriveResp and IdleResp are the channels' only writers. A direct write
// leaves the cache stale, and a later drive of the cached state is then
// silently skipped. Gnt and RGnt are answered directly and are not
// channel signals here. _test.go files are exempt: tests poke wires on
// purpose.
var PortDrive = &Analyzer{
	Name: "portdrive",
	Doc: "flag Set/SetU64/SetBool on a stbus.Port channel signal (req..pri, r_req..r_src) outside package stbus: " +
		"drive channels through DriveCell/IdleReq/DriveResp/IdleResp, which cache the last drive " +
		"(test files are exempt)",
	Run: runPortDrive,
}

// portChannels names the Port fields written only through the drive methods.
var portChannels = map[string]bool{
	"Req": true, "Opc": true, "Add": true, "Data": true, "BE": true,
	"EOP": true, "Lck": true, "TID": true, "Src": true, "Pri": true,
	"RReq": true, "ROpc": true, "RData": true, "REOP": true, "RTID": true, "RSrc": true,
}

func runPortDrive(pass *Pass) error {
	if pass.Pkg.Path() == stbusPath {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch method.Sel.Name {
			case "Set", "SetU64", "SetBool":
			default:
				return true
			}
			field, ok := method.X.(*ast.SelectorExpr)
			if !ok || !portChannels[field.Sel.Name] {
				return true
			}
			owner := pass.TypesInfo.Types[field.X].Type
			if owner == nil {
				return true
			}
			if p, ok := types.Unalias(owner).(*types.Pointer); ok {
				owner = p.Elem()
			}
			if !isNamed(owner, stbusPath, "Port") {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct %s on stbus.Port channel signal %s: drive the channel through DriveCell/IdleReq/DriveResp/IdleResp, or the port's last-drive cache goes stale and a later drive is skipped",
				method.Sel.Name, field.Sel.Name)
			return true
		})
	}
	return nil
}
