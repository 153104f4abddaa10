// Command user is the caller in the api analyzer's fixture.
package main

import "repro/internal/lint/checks/testdata/src/api"

type shape interface{ Area() int }

func main() {
	var s shape = api.Square{}
	println(s.Area() + api.Called())
}
