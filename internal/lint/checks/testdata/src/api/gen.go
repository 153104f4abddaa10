// Code generated by hand for the api fixture. DO NOT EDIT.

package api

// Generated has no caller, but generated files are not audited.
func Generated() int { return 3 }
