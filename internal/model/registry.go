package model

import "bfpp/internal/registry"

// Registry resolves the model names every consumer accepts (the commands'
// -model flags, the service requests' "model" field): any package can
// publish a named constructor at init time with Registry.Register.
var Registry = registry.New[Transformer]("model")

func init() {
	// The paper's models register like any extension would.
	Registry.Register("52B", Model52B)
	Registry.Register("6.6B", Model6p6B, "6p6b")
	Registry.Register("GPT-3", GPT3, "gpt3")
	Registry.Register("1T", Model1T)
	Registry.Register("tiny", Tiny)
}
