# Makefile — common entry points. `make ci` is what the repo considers a
# green build; `make bench` refreshes BENCH_search.json (the perf
# trajectory of the parallel grid-search engine).

.PHONY: build test vet lint race bench ci

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

lint:
	go run ./cmd/bfpp-lint ./...

race:
	go test -race -count=1 ./internal/...

bench:
	sh scripts/bench.sh

ci:
	sh ci.sh
