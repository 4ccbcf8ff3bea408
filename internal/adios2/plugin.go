package adios2

import (
	"sync"

	"lsmio/internal/mpisim"
	"lsmio/internal/rt"
	"lsmio/internal/vfs"
)

// The Plugin mechanism mirrors ADIOS2's: a custom storage engine is
// registered under a name, and applications select it purely through
// configuration —
//
//	io.SetEngine("plugin")
//	io.SetParameter("PluginName", "lsmio")
//
// or the equivalent XML — with no application code changes (§3.1.7, §4.3).

// PluginContext is everything a plugin engine gets at Open time.
type PluginContext struct {
	Path    string
	Mode    Mode
	IO      *IO
	FS      vfs.FS
	Runtime rt.Runtime
	Rank    *mpisim.Rank
	Params  map[string]string
}

// PluginFactory constructs a plugin engine instance.
type PluginFactory func(ctx PluginContext) (Engine, error)

var pluginRegistry = struct {
	sync.RWMutex
	m map[string]PluginFactory
}{m: make(map[string]PluginFactory)}

// RegisterPlugin makes a plugin engine available under name. Registering
// the same name again replaces the factory (tests rely on this).
func RegisterPlugin(name string, factory PluginFactory) {
	pluginRegistry.Lock()
	defer pluginRegistry.Unlock()
	pluginRegistry.m[name] = factory
}

func lookupPlugin(name string) (PluginFactory, bool) {
	pluginRegistry.RLock()
	defer pluginRegistry.RUnlock()
	f, ok := pluginRegistry.m[name]
	return f, ok
}

// RegisteredPlugins lists the registered plugin names (diagnostics).
func RegisteredPlugins() []string {
	pluginRegistry.RLock()
	defer pluginRegistry.RUnlock()
	names := make([]string, 0, len(pluginRegistry.m))
	for n := range pluginRegistry.m {
		names = append(names, n)
	}
	return names
}
